(** A host's pending-request table: every control-plane round trip it has
    in flight, one entry per request. Each request is sent once, then
    retransmitted with exponential backoff (250 ms, ×2, up to 5 attempts)
    until it is answered; on exhaustion its [on_timeout] runs once.
    Replies are matched by key, never by arrival order, so loss,
    duplication or reordering cannot pair a reply with another request's
    continuation. The table has no clock of its own: timers come from the
    scheduler passed to {!start}. *)

type key =
  | Corr of int64  (** EphID issuance or DNS, by correlation id. *)
  | Accept of int64
      (** An initiator awaiting the server's Accept, by connection id. *)
  | Ping of int  (** ICMP echo, by ident. *)
  | Rekey of int64
      (** A migration awaiting the peer's Rekey_ack, by connection id. *)

type schedule = delay:float -> (unit -> unit) -> unit
(** Runs the callback [delay] seconds from now. *)

type 'r t
(** A table whose requests are answered by replies of type ['r]. *)

val create : owner:string -> 'r t
(** [owner] names the host in log lines and flight-recorder events. *)

val fresh_corr : 'r t -> int64
(** Next correlation id (1, 2, ...). *)

val fresh_ping : 'r t -> int
(** Next echo ident (1, 2, ...). *)

val start :
  'r t -> schedule option -> key -> what:string -> ?on_reply:('r -> unit) ->
  resend:(unit -> unit) -> on_timeout:(unit -> unit) -> unit -> unit
(** Registers a request under [key] (replacing any other), sends it with
    [resend] and arms its timer. Each firing resends and re-arms until the
    5th attempt's timer, which removes the request and runs [on_timeout].
    With no scheduler the request is sent once and waits indefinitely. A
    timer finds its request by key; once the request is settled the timer
    does nothing. *)

val settle : 'r t -> key -> unit
(** Drops a pending request without running any continuation (its answer
    came through another path). Later replies under [key] are orphans. *)

val reply : 'r t -> key -> 'r -> bool
(** Settles [key]'s request and runs its [on_reply]; [false] when nothing
    was pending. *)

val dispatch_reply : 'r t -> what:string -> key -> 'r -> unit
(** {!reply}, counting a reply that finds no pending request (a duplicate or
    late arrival) as an orphan. *)

val pending : 'r t -> int
(** Requests in flight: 0 once every continuation has fired. *)

val retries : 'r t -> int
(** Retransmissions performed. *)

val timeouts : 'r t -> int
(** Requests abandoned after their last attempt. *)

val orphans : 'r t -> int
(** Replies that found no pending request. *)

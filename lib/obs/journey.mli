(** Assemble flight-recorder events into per-packet causal journeys.

    A journey is the ordered list of {!Event.record}s sharing one packet
    key, plus a classification of how the packet's story ends. Journeys
    are the unit the [apnad trace] waterfall, the drop-forensics report
    and the bench [journeys] section are built from. *)

type outcome =
  | Delivered
      (** at least one copy reached a {!Event.Deliver} (or gateway
          decapsulation) point *)
  | Dropped_at of { stage : string; reason : string }
      (** rejected by a border-router pipeline; [stage] is ["br.egress"]
          or ["br.ingress"], [reason] an {!Error.kind_label} *)
  | Lost_on_link of { src : int; dst : int; fate : Event.fate }
      (** last sighting is an injected link loss or sender-queue tail
          drop on the [src -> dst] link *)
  | In_flight
      (** no terminal event retained — still travelling, or its early
          hops were evicted from the ring *)

type t = private {
  key : int64;
  events : Event.record list;  (** causally ordered (by record seq) *)
  outcome : outcome;
}

val classify : Event.record list -> outcome
(** Outcome of one key's (seq-ordered) event list. *)

val of_events : Event.record list -> t list
(** Group any event list by key. Journeys appear in order of each key's
    first retained event; each journey's events are seq-sorted.
    {!Event.Rpc_retransmit} stages are left out: they time a host's
    retry timer, not a packet hop, and the resent packet's own hops
    already appear in its journey. *)

val assemble : Event.sink -> t list
(** [of_events (Event.to_list sink)]. *)

val find : t list -> int64 -> t option
(** Journey for one packet key, if any events were retained. *)

val outcome_label : outcome -> string
(** ["delivered"], ["dropped at br.egress [bad-mac]"],
    ["lost on link AS64500->AS64501"], ["in-flight"]. *)

val summary : t list -> (string * int) list
(** Outcome-label histogram, sorted by descending count then label. *)

val last_good_hop : t -> string
(** Stage + location of the last non-failing event (["br.egress @
    AS64500"]), or ["(origin)"] when every retained event failed. *)

val drop_report : t list -> ((string * string) * int) list
(** Forensics over non-delivered journeys: counts grouped by
    [(last_good_hop, failure reason)], sorted by descending count. *)

val render : t -> string
(** Multi-line text waterfall: header (key, outcome, elapsed) and one
    [+offset stage description] line per event. *)

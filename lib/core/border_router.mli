(** Border router data-plane pipelines (paper §IV-D3, Fig. 4, §V-B).

    Egress (host → Internet): decrypt the source EphID, check expiry,
    revocation and HID validity, verify the per-packet MAC — only
    authenticated packets of authorized EphIDs leave the AS.

    Ingress (Internet → host): if the packet has reached its destination
    AS, decrypt the destination EphID and run the same validity checks,
    then hand the packet to intra-domain delivery by HID; otherwise forward
    toward the destination AID.

    Only symmetric cryptography runs here — one AES-CTR decryption, one
    CBC-MAC over a single block, two table lookups and one HMAC
    verification per packet — which is the design point the Fig. 8
    forwarding benchmark measures.

    Since EphIDs are per-flow tokens, consecutive packets of a flow repeat
    identical decrypt + CBC-MAC work; a bounded LRU of validated EphIDs
    (raw 16-byte token -> HID, expiry, kHA entry, prepared packet-MAC key)
    amortizes it. A hit still checks expiry against [~now] and the
    {!Revocation.generation} / {!Host_info.generation} counters recorded
    at insert time, so revoking an EphID or HID, GC'ing the revocation
    list, or re-keying a host forces the full pipeline again (see
    DESIGN.md, "EphID cache").

    The packet-at-a-time API ({!egress_check}/{!ingress_check}) is a burst
    of one over the batched engine ({!egress_burst}/{!ingress_burst}):
    DPDK-style bursts of up to {!max_burst} packets whose working memory —
    MAC-input scratch, EphID parse buffers, verdict slots — is preallocated
    at {!create}, so the cached steady state allocates nothing per packet
    (see DESIGN.md, "Batched fast path"). *)

type t

type counters = {
  mutable egress_ok : int;
  mutable ingress_delivered : int;
  mutable ingress_forwarded : int;
  mutable dropped : int;
}

type cache_stats = {
  mutable hits : int;  (** fast path taken: decrypt + CBC-MAC skipped *)
  mutable misses : int;  (** token not cached: full pipeline *)
  mutable invalidations : int;
      (** cached entry rejected: expired, or a generation counter moved *)
}

val create :
  keys:Keys.as_keys -> host_info:Host_info.t -> revoked:Revocation.t ->
  topology:Apna_net.Topology.t -> ?audit:Audit.t -> ?ephid_cache:int ->
  unit -> t
(** [audit] enables data retention of egress packet digests (§VIII-H).
    [ephid_cache] is the validated-EphID cache capacity in entries
    (default 8192); [0] disables the cache entirely (every packet runs the
    full Fig. 4 pipeline — the configuration the uncached benchmark rows
    measure). *)

val counters : t -> counters

val ephid_cache_stats : t -> cache_stats
(** All-zero when the cache is disabled. *)

val ephid_cache_size : t -> int
(** Entries currently cached (0 when disabled). *)

val drop_reasons : t -> (string * int) list
(** Drops broken down by {!Error.kind_label}, sorted by label — the
    operator's view of what the pipeline is rejecting. *)

val drop_registrations : t -> int
(** How many reason-labeled drop counters this router has registered in
    the metrics registry — at most one per distinct reason, however many
    packets dropped (the cost sentinel the scale tests watch). *)

type ingress_decision =
  | Deliver of Apna_net.Addr.hid  (** at destination AS: intra-domain hop *)
  | Forward of Apna_net.Addr.aid  (** transit: next AS toward the AID *)

(** Caller-owned verdict store for the burst API: parallel slots the
    pipelines write in place, so the steady-state accept path never
    builds result values. A burst value may be reused across bursts and
    routers; it grows on demand and is not thread-safe. *)
module Burst : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] defaults to {!max_burst}. *)

  val capacity : t -> int

  val error : t -> int -> Error.t option
  (** [None] = packet [i] was accepted; reading allocates nothing. *)

  val hid : t -> int -> int
  (** Egress: the authenticated sender's HID as an int. Ingress: the
      local delivery HID. Only meaningful when [error] is [None] (and,
      for ingress, when [forward_aid] is negative); [-1] otherwise. *)

  val forward_aid : t -> int -> int
  (** Ingress transit verdict: next-hop AID as an int, [-1] if packet
      [i] was delivered locally or dropped. *)

  val egress_result : t -> int -> (Apna_net.Addr.hid, Error.t) result
  (** Allocating convenience reader (tests, slow paths). *)

  val ingress_result : t -> int -> (ingress_decision, Error.t) result
end

val max_burst : int
(** 32 — the default {!Burst} capacity. Larger [n] still works; the
    store grows on demand. *)

val egress_burst :
  t -> now:int -> Apna_net.Packet.t array -> n:int -> Burst.t -> unit
(** [egress_burst t ~now pkts ~n b] runs the full outbound pipeline on
    [pkts.(0..n-1)], writing one verdict per packet into [b] (grown as
    needed). Equivalent to [n] calls of {!egress_check} in order — same
    verdicts, same counters, same flight-recorder events — but the cached
    steady state allocates nothing per packet. Not reentrant: one burst
    at a time per router. @raise Invalid_argument if [n] exceeds
    [Array.length pkts]. *)

val ingress_burst :
  t -> now:int -> Apna_net.Packet.t array -> n:int -> Burst.t -> unit
(** Batched {!ingress_check}; same contract as {!egress_burst}. *)

val egress_check :
  t -> now:int -> Apna_net.Packet.t -> (Apna_net.Addr.hid, Error.t) result
(** Full outbound pipeline; [Ok hid] identifies the (internal) sender.
    A burst of one over the router's private verdict slot. *)

val ingress_check :
  t -> now:int -> Apna_net.Packet.t -> (ingress_decision, Error.t) result

val revoked : t -> Revocation.t

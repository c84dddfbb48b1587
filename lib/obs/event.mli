(** Packet flight recorder: typed lifecycle events in a bounded ring.

    An event answers "what happened to this packet": it records one step
    of a packet's journey — submitted by a host, accepted or dropped at a
    border router, placed on (or lost on) an inter-AS link, delivered,
    encapsulated by a gateway, named in a shutoff. A {e stage} is an event
    that also carries the time its step began ({!start}), so the same
    record answers "how long did stage S take" ({!stage_summary}). Events
    sharing a key are assembled into an end-to-end causal timeline by
    {!Journey} and exported by {!Chrome_trace}.

    The key is an FNV-1a 64-bit hash of the packet MAC. A control-plane
    retransmission reuses the original packet bytes (same MAC), so all
    attempts of one request land in one journey.

    A sink starts disabled and recording is bounded-memory:
    instrumentation sites guard with [if Event.enabled Event.default then
    ...], one mutable load and a branch while the recorder is off — no
    hashing, no allocation, no clock read. *)

type fate =
  | Delivered  (** frame scheduled for on-time delivery *)
  | Lost  (** frame dropped by injected link loss *)
  | Duplicated  (** a second injected copy of the frame *)
  | Reordered  (** delivered copy carrying injected reorder jitter *)
  | Queue_drop  (** tail-dropped by a bounded link sender queue *)

type egress_outcome =
  | Egress_ok
  | Egress_drop of string  (** {!Error.kind_label} of the drop reason *)

type ingress_outcome =
  | Ingress_deliver  (** destination is local: handed to delivery *)
  | Ingress_forward of int  (** transit: forwarded to this AS number *)
  | Ingress_drop of string  (** {!Error.kind_label} of the drop reason *)

type kind =
  | Host_send of { aid : int; host : string }
      (** A host sealed and submitted the packet to its AS. *)
  | Br_egress of { aid : int; outcome : egress_outcome }
      (** Fig. 4 egress pipeline verdict at the source border router. *)
  | Link_transit of { src : int; dst : int; fate : fate }
      (** One crossing of the [src -> dst] link (for the host access hop
          under injected faults, [src = dst] = the AS number). *)
  | Br_ingress of { aid : int; outcome : ingress_outcome }
      (** Ingress pipeline verdict (deliver / forward / drop). *)
  | Deliver of { aid : int; hid : int }
      (** Packet handed to a local host or infrastructure service. *)
  | Gw_encap of { gateway : string }
      (** Legacy IPv4 packet encapsulated into an APNA tunnel; keyed on
          the IPv4 bytes so encap and decap of one frame share a key. *)
  | Gw_decap of { gateway : string }
      (** Tunnel payload decapsulated back to IPv4. *)
  | Shutoff of { aid : int }
      (** A shutoff was executed against this packet (keyed on the
          evidence packet's MAC, joining the offending journey). *)
  | Migrate of { aid : int; host : string; reason : string }
      (** A host rebound a live session onto a fresh EphID (keyed on the
          connection id, so all migrations of one session share a
          timeline); [reason] is "renewal-margin" for proactive renewal or
          the ICMP reason label for reactive recovery. *)
  | Broker_decision of { aid : int; granted : bool; query : string }
      (** The privacy broker granted or refused a linkage request (keyed
          on the request correlation id); [query] is the query label
          ("deanonymize", "bindings-of", "attribute-packet"). *)
  | Alert_state of { rule : string; series : string; state : string }
      (** An {!Alert} rule instance changed state ("pending", "firing",
          "resolved"); keyed on the rule name so one rule's transitions
          form a timeline. *)
  | Rpc_retransmit of { host : string; what : string; attempt : int }
      (** A host's request timer fired and it resent the request
          (keyed on ["rpc:<correlation id>"], so all retries of one
          request share a timeline); [attempt] counts from 2. *)

type record = {
  key : int64;
  time : float;
  start : float option;
      (** Stages only: the clock when the stage began; [time] is when it
          ended. [None] for instant events. *)
  seq : int;
  kind : kind;
}
(** [time] is the sink clock (simulated seconds inside a simulation);
    [seq] is the global record order, for deterministic reconstruction. *)

type sink

val create_sink : ?capacity:int -> ?enabled:bool -> unit -> sink
(** Ring capacity defaults to 16384 events; [enabled] to false. *)

val default : sink
(** Process-wide sink the built-in instrumentation records into. *)

val set_enabled : sink -> bool -> unit
val enabled : sink -> bool

val set_clock : sink -> (unit -> float) -> unit
(** Clock stamped onto records. Only consulted while enabled;
    [Network.create] points the default sink at simulated time. *)

val start : sink -> float
(** Opens a stage: the clock reading while enabled; [nan] without reading
    the clock while disabled. Pass it to {!record} when the stage ends. *)

val record : sink -> ?start:float -> key:int64 -> kind -> unit
(** Append one event. With [start] (from {!start}) it is a stage that
    ran from [start] to now; a [nan] start — the stage opened while the
    sink was off — records an instant. No-op while disabled — but callers
    on hot paths should guard with {!enabled} so the [kind] is never even
    built. *)

val key_of_string : string -> int64
(** FNV-1a 64-bit hash, for deriving keys from packet MACs or names. *)

val recorded : sink -> int
(** Total events ever recorded (may exceed capacity). *)

val capacity : sink -> int

val evicted : sink -> int
(** [max 0 (recorded - capacity)]: events overwritten by ring wraparound.
    When nonzero, assembled journeys may be missing their oldest hops. *)

val to_list : sink -> record list
(** Retained events, oldest first (at most [capacity]). *)

val by_key : sink -> int64 -> record list
(** Retained events for one key, in record order — a packet's journey. *)

val stage_summary : sink -> (string * int * float) list
(** Per-stage ({!stage_label}, count, mean duration) over the retained
    stage records, sorted by label. Instant events are not counted. *)

val clear : sink -> unit

(** {2 Rendering helpers} *)

val fate_label : fate -> string

val stage_label : kind -> string
(** Short stage name: ["host.send"], ["br.egress"], ["link.transit"],
    ["br.ingress"], ["deliver"], ["gw.encap"], ["gw.decap"],
    ["shutoff"], ["host.migrate"], ["broker.decide"], ["alert"],
    ["host.rpc.retransmit"]. *)

val where : kind -> string
(** Location tag: ["AS64500"], ["AS64500->AS64501"], ["gw:lan-a"]. *)

val describe : kind -> string
(** One human line: outcome plus location, for waterfalls and exports. *)

(** Export flight-recorder events as Chrome trace-event JSON.

    The output is the trace-event array format understood by Perfetto and
    [chrome://tracing]: a JSON array whose elements each carry ["name"],
    ["cat"], ["ph"], ["ts"] (microseconds), ["pid"] and ["tid"].

    Mapping: [pid] is the AS number the event happened in (0 for gateway,
    alert and retransmit events, which carry no AS identity), [tid] is the
    packet key (FNV-64, truncated to a non-negative OCaml int — the full
    key is in ["args.key"] as hex). Stage records (events with a start
    time) become ["ph":"X"] complete events stamped at their start with a
    ["dur"]; every other event becomes a ["ph":"i"] thread-scoped instant.
    Entries are sorted by timestamp. *)

val to_json : Event.sink -> Json.t
(** Trace-event array over the retained contents of the sink. *)

val to_string : Event.sink -> string

val write_file : Event.sink -> string -> unit
(** Render to a file, newline-terminated. *)

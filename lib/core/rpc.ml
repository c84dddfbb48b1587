module M = Apna_obs.Metrics
module E = Apna_obs.Event

let m_retries =
  M.Counter.register M.default "apna_host_rpc_retries_total"
    ~help:"Control-plane request retransmissions"

let m_timeouts =
  M.Counter.register M.default "apna_host_rpc_timeouts_total"
    ~help:"Control-plane requests abandoned after exhausting retransmissions"

let m_orphans =
  M.Counter.register M.default "apna_host_rpc_orphan_replies_total"
    ~help:"Replies with no pending request (duplicates or late arrivals)"

type key = Corr of int64 | Accept of int64 | Ping of int | Rekey of int64
type schedule = delay:float -> (unit -> unit) -> unit

type 'r request = {
  what : string;
  schedule : schedule option;
  resend : unit -> unit;
  on_reply : 'r -> unit;
  on_timeout : unit -> unit;
  mutable attempts : int;
}

type 'r t = {
  owner : string;
  pending : (key, 'r request) Hashtbl.t;
  mutable next_corr : int64;
  mutable next_ping : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable orphans : int;
}

let timeout_s = 0.25
let max_attempts = 5
let backoff = 2.0

let create ~owner =
  {
    owner;
    pending = Hashtbl.create 8;
    next_corr = 0L;
    next_ping = 0;
    retries = 0;
    timeouts = 0;
    orphans = 0;
  }

let fresh_corr t = t.next_corr <- Int64.add t.next_corr 1L; t.next_corr
let fresh_ping t = t.next_ping <- t.next_ping + 1; t.next_ping

let key_id = function
  | Corr id | Accept id | Rekey id -> id
  | Ping ident -> Int64.of_int ident

(* A settled request leaves its last timer armed; it finds no table entry
   and does nothing (there is no cancellation). *)
let rec arm t key req =
  match req.schedule with
  | None -> ()
  | Some sched ->
      let delay = timeout_s *. (backoff ** float_of_int (req.attempts - 1)) in
      sched ~delay (fun () -> fired t key)

and fired t key =
  match Hashtbl.find_opt t.pending key with
  | None -> ()
  | Some req ->
      if req.attempts >= max_attempts then begin
        Hashtbl.remove t.pending key;
        t.timeouts <- t.timeouts + 1;
        M.Counter.incr m_timeouts;
        Logs.warn (fun m ->
            m "%s: %s: no reply after %d attempts" t.owner req.what
              req.attempts);
        req.on_timeout ()
      end
      else begin
        req.attempts <- req.attempts + 1;
        t.retries <- t.retries + 1;
        M.Counter.incr m_retries;
        let start = E.start E.default in
        req.resend ();
        if E.enabled E.default then
          E.record E.default ~start
            ~key:(E.key_of_string (Printf.sprintf "rpc:%Ld" (key_id key)))
            (E.Rpc_retransmit
               { host = t.owner; what = req.what; attempt = req.attempts });
        arm t key req
      end

let start t schedule key ~what ?(on_reply = fun _ -> ()) ~resend ~on_timeout
    () =
  let req = { what; schedule; resend; on_reply; on_timeout; attempts = 1 } in
  Hashtbl.replace t.pending key req;
  resend ();
  arm t key req

let settle t key = Hashtbl.remove t.pending key

let reply t key r =
  match Hashtbl.find_opt t.pending key with
  | Some req ->
      Hashtbl.remove t.pending key;
      req.on_reply r;
      true
  | None -> false

let dispatch_reply t ~what key r =
  if not (reply t key r) then begin
    t.orphans <- t.orphans + 1;
    M.Counter.incr m_orphans;
    Logs.debug (fun m ->
        m "%s: %s reply with no pending request (corr %Ld)" t.owner what
          (key_id key))
  end

let pending t = Hashtbl.length t.pending
let retries t = t.retries
let timeouts t = t.timeouts
let orphans t = t.orphans

(* serve: a charon-serve daemon in its own process (this executable
   re-run with [--serve-daemon]) with two scheduler workers, an empty
   persistent verdict store and a proof cache, fed over TCP by an
   open-loop generator in this process.

   The generator sends on a fixed schedule made from the seed: every
   problem of a fixed pool once as a fresh ("cold") job, and then
   [repeats_per_cold] more times as a job that repeats a problem already
   sent — answered (a verdict-cache hit) or still in flight (coalesced
   onto the running job).  Arrivals are evenly spaced at [rate], in an
   order drawn from the seed; two tenants share the traffic 2:1 with
   fair-share weights 2:1.  One domain sends and the main domain polls, each
   with one connection at a time; on separate domains, polling never
   holds up a send.

   A job's latency runs from when it was due to be sent to the
   daemon's verdict event: the submit's return time on this host's
   clock plus the verdict event's offset from the daemon's submit
   timestamp.  The daemon keeps telemetry metrics on at all times (it
   serves them in its stats); traced and untraced serve runs are
   therefore the same run. *)

module J = Telemetry.Jsonw
module C = Server.Client

let per_network = 18

let steps = 40

let repeats_per_cold = 3

let workers = 2

let guard_s = 60.0

(* Arrival rate, set once: at 17 jobs/s the daemon's two workers are
   busy about a third of the time on a 2-core machine, so no backlog
   builds.  Arrivals fill at most [send_share] of the run; the rest
   lets the last jobs drain.  At 30 s the whole pool fits. *)
let rate = 17.0

let send_share = 0.85

let tenants = [ ("heavy", "perfbench-heavy", 2.0); ("light", "perfbench-light", 1.0) ]

let tenant_config () =
  Server.Tenant.of_json
    (J.Obj
       [
         ( "tenants",
           J.Arr
             (List.map
                (fun (name, key, weight) ->
                  J.Obj
                    [
                      ("name", J.Str name);
                      ("key", J.Str key);
                      ("weight", J.Float weight);
                    ])
                tenants) );
       ])

(* ------------------------------------------------------------------ *)
(* The daemon process *)

let daemon_flag = "--serve-daemon"

let hwm_counter = "process.vmhwm_kb"

(* Serve until stdin closes, then write the daemon's counters, span
   histograms and memory high-water mark to [dump] and shut down. *)
let daemon_main ~store ~dump =
  let h =
    Server.Daemon.start ~tcp:("127.0.0.1", 0) ~workers ~store_path:store
      ~queue_capacity:4096 ~tenants:(tenant_config ()) ()
  in
  print_endline (string_of_int (Option.get (Server.Daemon.tcp_port h)));
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  let live = Layers.live () in
  Layers.to_file dump
    {
      live with
      Layers.counters = (hwm_counter, Harness.self_hwm_kb ()) :: live.Layers.counters;
    };
  Server.Daemon.stop h;
  0

type daemon = { pid : int; stdin_w : Unix.file_descr; addr : C.addr; dir : string }

let spawn_daemon dir =
  Harness.mkdir_p dir;
  let store = Filename.concat dir "store.jsonl" in
  if Sys.file_exists store then Sys.remove store;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Harness.self_exe
      [| Harness.self_exe; daemon_flag; store; Filename.concat dir "daemon.jsonl" |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let port = int_of_string (String.trim (input_line ic)) in
  close_in ic;
  let addr = C.Tcp ("127.0.0.1", port) in
  let _, key, _ = List.hd tenants in
  let rec ping tries =
    match C.ping ~api_key:key ~addr () with
    | _ -> ()
    | exception (Unix.Unix_error _ as e) ->
        if tries = 0 then raise e;
        Unix.sleepf 0.01;
        ping (tries - 1)
  in
  ping 500;
  { pid; stdin_w = in_w; addr; dir }

(* Close the daemon's stdin, wait for it, and return its telemetry. *)
let stop_daemon d =
  Unix.close d.stdin_w;
  let code = Harness.wait_child d.pid in
  let dump = Filename.concat d.dir "daemon.jsonl" in
  let snap =
    if Sys.file_exists dump then Layers.of_trace_file dump else Layers.empty
  in
  Array.iter (fun f -> Sys.remove (Filename.concat d.dir f)) (Sys.readdir d.dir);
  Sys.rmdir d.dir;
  (code, snap)

(* ------------------------------------------------------------------ *)
(* Problems and schedule *)

type problem = {
  net : Nn.Network.t;
  prop : Common.Property.t;
  job : Server.Protocol.job_spec;
}

let problems () =
  Harness.load_networks ()
  |> List.filter (fun (e : Datasets.Suite.entry) ->
         not e.Datasets.Suite.convolutional)
  |> List.concat_map (fun (e : Datasets.Suite.entry) ->
         let net = e.Datasets.Suite.net in
         let text = Nn.Serial.to_string net in
         Datasets.Suite.properties ~seed:Harness.suite_seed e ~count:per_network
         |> List.mapi (fun i (prop : Common.Property.t) ->
                {
                  net;
                  prop;
                  job =
                    {
                      Server.Protocol.name = prop.Common.Property.name;
                      network = text;
                      box = prop.Common.Property.region;
                      target = prop.Common.Property.target;
                      delta = Charon.Verify.default_config.Charon.Verify.delta;
                      timeout = Some guard_s;
                      max_steps = Some steps;
                      seed = Harness.suite_seed + i;
                    };
                }))
  |> Array.of_list

type send = { due : float; problem : int; tenant : int }

(* Every problem of the pool is sent once fresh and then exactly
   [repeats_per_cold] times more, so every seed sends the same jobs in
   another order.  Repeats drawn freely from the problems sent so far
   would favour early problems, and the count of repeated hard problems
   (Timeouts, which the verdict cache does not keep, so they run again)
   would move the latency percentiles from seed to seed.  Fresh jobs
   fall at uniformly random places in the schedule; a repeat picks a
   problem already sent, weighted by the repeats it still owes. *)
let schedule ~seed ~seconds n_problems =
  let rng = Linalg.Rng.create seed in
  let n =
    min
      (n_problems * (1 + repeats_per_cold))
      (int_of_float (rate *. send_share *. seconds))
  in
  let n_cold = (n + repeats_per_cold) / (1 + repeats_per_cold) in
  let fresh = Array.init n_problems Fun.id in
  Linalg.Rng.shuffle rng fresh;
  let owed = Array.make n_problems 0 in
  for j = 0 to n_cold - 1 do
    owed.(fresh.(j)) <- repeats_per_cold
  done;
  (* A schedule shorter than the pool times four owes fewer repeats
     on its last problems. *)
  for j = 1 to (n_cold * (1 + repeats_per_cold)) - n do
    let p = fresh.(n_cold - j) in
    owed.(p) <- owed.(p) - 1
  done;
  let sent = ref 0 and owed_sent = ref 0 in
  let pick_repeat () =
    let r = ref (Linalg.Rng.int rng !owed_sent) and j = ref 0 in
    while !r >= owed.(fresh.(!j)) do
      r := !r - owed.(fresh.(!j));
      incr j
    done;
    fresh.(!j)
  in
  let gap = 1.0 /. rate in
  Array.init n (fun i ->
      let cold =
        !sent < n_cold
        && (!owed_sent = 0 || Linalg.Rng.int rng (n - i) < n_cold - !sent)
      in
      let problem =
        if cold then begin
          let p = fresh.(!sent) in
          incr sent;
          owed_sent := !owed_sent + owed.(p);
          p
        end
        else pick_repeat ()
      in
      if not cold then begin
        owed.(problem) <- owed.(problem) - 1;
        decr owed_sent
      end;
      let tenant = if Linalg.Rng.float rng 1.0 < 2.0 /. 3.0 then 0 else 1 in
      { due = float_of_int i *. gap; problem; tenant })

(* ------------------------------------------------------------------ *)
(* Load generation *)

type outcome = {
  mutable sent : float;
  mutable returned : float;
  mutable final : J.t option;  (** terminal status *)
  mutable error : string option;
}

let key_of s = let _, k, _ = List.nth tenants s.tenant in k

let generate ~addr ~problems sched =
  let n = Array.length sched in
  let out =
    Array.init n (fun _ -> { sent = 0.0; returned = 0.0; final = None; error = None })
  in
  (* Jobs handed from the sender to the poller that have no verdict yet. *)
  let pending = Atomic.make [] and sending = Atomic.make true in
  let rec push xs =
    let cur = Atomic.get pending in
    if not (Atomic.compare_and_set pending cur (xs @ cur)) then push xs
  in
  let start = Harness.now () +. 0.05 in
  let sender () =
    Array.iteri
      (fun k s ->
        let wait = start +. s.due -. Harness.now () in
        if wait > 0.0 then Unix.sleepf wait;
        let o = out.(k) in
        o.sent <- Harness.now ();
        (match C.submit ~api_key:(key_of s) ~addr problems.(s.problem).job with
        | id, resp ->
            o.returned <- Harness.now ();
            if C.terminal (C.job_state resp) then o.final <- Some resp
            else push [ (k, id) ]
        | exception C.Rejected { code; _ } -> o.error <- Some ("rejected: " ^ code)
        | exception e -> o.error <- Some (Printexc.to_string e)))
      sched;
    Atomic.set sending false
  in
  let sending_domain = Domain.spawn sender in
  let deadline = start +. sched.(n - 1).due +. guard_s +. 30.0 in
  let rec poll () =
    (* Read [sending] first: once it is false, every job the sender
       pushed is in [pending]. *)
    let more = Atomic.get sending in
    let batch = Atomic.exchange pending [] in
    let still =
      List.filter
        (fun (k, id) ->
          match C.status ~api_key:(key_of sched.(k)) ~addr id with
          | resp when C.terminal (C.job_state resp) ->
              out.(k).final <- Some resp;
              false
          | _ -> true
          | exception e ->
              out.(k).error <- Some (Printexc.to_string e);
              false)
        batch
    in
    push still;
    if (more || still <> []) && Harness.now () < deadline then begin
      Unix.sleepf 0.05;
      poll ()
    end
    else
      List.iter (fun (k, _) -> out.(k).error <- Some "no verdict before the deadline") still
  in
  poll ();
  Domain.join sending_domain;
  (start, out)

(* ------------------------------------------------------------------ *)

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let num path j = Option.value ~default:0.0 (Option.bind (member path j) J.to_float_opt)

let events j =
  match J.member "events" j with
  | Some (J.Arr evs) ->
      List.map
        (fun e ->
          ( Option.value ~default:"" (Option.bind (J.member "label" e) J.to_string_opt),
            Option.value ~default:0.0 (Option.bind (J.member "t" e) J.to_float_opt) ))
        evs
  | _ -> []

let run ~seed ~seconds ~traced ~ledger =
  Harness.ensure_networks ();
  let dir_of i =
    Filename.concat Harness.cache_dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) i)
  in
  let setups =
    List.init Harness.setup_reps (fun i ->
        let dt, r = Harness.time (fun () -> (problems (), spawn_daemon (dir_of i))) in
        if i < Harness.setup_reps - 1 then ignore (stop_daemon (snd r));
        (dt, r))
  in
  let setup_s = Stats.median (List.map fst setups) in
  let problems, daemon = snd (List.nth setups (Harness.setup_reps - 1)) in
  let sched = schedule ~seed ~seconds (Array.length problems) in
  let start, out, stats =
    match generate ~addr:daemon.addr ~problems sched with
    | start, out ->
        (start, out, C.stats ~api_key:(key_of sched.(0)) ~addr:daemon.addr ())
    | exception e ->
        ignore (stop_daemon daemon);
        raise e
  in
  let code, snap = stop_daemon daemon in
  let failed = ref (if code = 0 then 0 else 1) in
  let fail k why =
    incr failed;
    Printf.eprintf "serve: job %d (%s): %s\n%!" k
      problems.(sched.(k).problem).prop.Common.Property.name why
  in
  let lat = ref [] and cold_lat = ref [] and hit_lat = ref [] in
  let waits = ref [] and runs = ref [] and rtts = ref [] and late = ref [] in
  let last = ref start and decided = Hashtbl.create 64 in
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun k s ->
      let o = out.(k) in
      let p = problems.(s.problem) in
      let name = p.prop.Common.Property.name in
      late := ((o.sent -. (start +. s.due)) *. 1000.0) :: !late;
      match (o.error, o.final) with
      | Some why, _ -> fail k why
      | None, None -> fail k "no verdict"
      | None, Some resp -> (
          rtts := ((o.returned -. o.sent) *. 1000.0) :: !rtts;
          match (C.job_state resp, J.member "verdict" resp) with
          | "done", Some v ->
              let outcome = Server.Protocol.outcome_of_json v in
              let label = Common.Outcome.label outcome in
              let evs = events resp in
              let t_verdict = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 evs in
              let done_at = o.returned +. t_verdict in
              if done_at > !last then last := done_at;
              let l = (done_at -. (start +. s.due)) *. 1000.0 in
              lat := l :: !lat;
              let repeat =
                member [ "cache"; "hit" ] resp = Some (J.Bool true)
                || J.member "coalesced" resp = Some (J.Bool true)
              in
              if repeat then hit_lat := l :: !hit_lat
              else begin
                cold_lat := l :: !cold_lat;
                let at lbl = List.assoc_opt lbl evs in
                (match (at "queued", at "running") with
                | Some q, Some r ->
                    waits := ((r -. q) *. 1000.0) :: !waits;
                    runs := ((t_verdict -. r) *. 1000.0) :: !runs
                | _ -> ());
                if not (Hashtbl.mem table name) then Hashtbl.add table name label
              end;
              if Common.Outcome.is_solved outcome then Hashtbl.replace decided name ();
              (match outcome with
              | Common.Outcome.Refuted x
                when not
                       (Checks.witness_ok ~net:p.net ~prop:p.prop
                          ~delta:p.job.Server.Protocol.delta x) ->
                  fail k "invalid witness"
              | Common.Outcome.Timeout
                when num [ "wall_seconds" ] resp >= guard_s *. 0.99 ->
                  fail k "wall guard fired"
              | _ -> ());
              if not (Checks.record ledger ~path:"serve" ~problem:name label) then
                fail k ("verdict contradicts another path: " ^ label)
          | state, _ -> fail k ("ended " ^ state)))
    sched;
  let n = float_of_int (Array.length sched) in
  (* A tail percentile needs ten samples beyond it; say so when a
     class of jobs came out too small for the one reported. *)
  let pct xs p =
    let k = List.length xs in
    if p > 50.0 && not (Stats.tail_supported ~n:k ~at:p) then
      Printf.eprintf "serve: p%g over only %d samples\n%!" p k;
    if xs = [] then 0.0 else Stats.percentile xs p
  in
  let m = Harness.m in
  let metrics =
    if traced then
      Layers.verifier ~run_s:(Layers.span_s snap "verify.run") snap
      @ [
          m "serve.cold_p50_ms" "ms" (pct !cold_lat 50.0);
          m "serve.cold_p90_ms" "ms" (pct !cold_lat 90.0);
          m "serve.hit_p50_ms" "ms" (pct !hit_lat 50.0);
          m "serve.hit_p95_ms" "ms" (pct !hit_lat 95.0);
          m "serve.cold_jobs" "count" (float_of_int (List.length !cold_lat));
          m "serve.hit_jobs" "count" (float_of_int (List.length !hit_lat));
          m "serve.submit_rtt_p50_ms" "ms" (pct !rtts 50.0);
          m "serve.queue_wait_p50_ms" "ms" (pct !waits 50.0);
          m "serve.queue_wait_p95_ms" "ms" (pct !waits 95.0);
          m "serve.run_p50_ms" "ms" (pct !runs 50.0);
          m "serve.cache.hit_share" "share" (num [ "cache"; "hits" ] stats /. n);
          m "serve.coalesced_share" "share"
            (num [ "coalesce"; "coalesced_total" ] stats /. n);
          m "serve.store.appended" "count" (num [ "store"; "appended" ] stats);
          m "serve.store.hits" "count" (num [ "store"; "hits" ] stats);
          m "serve.proofcache.hit_share" "share"
            (num [ "proofcache"; "hit_rate" ] stats);
          m "serve.rejected" "count" (num [ "jobs"; "rejected" ] stats);
          m "serve.gen_late_p95_ms" "ms" (pct !late 95.0);
          m "telemetry.overhead_share" "share" 0.0;
          m "latency.samples" "count" (float_of_int (List.length !lat));
        ]
    else
      [
        m "setup_s" "s" setup_s;
        m "wall_s" "s" (!last -. start);
        m "solved" "count" (float_of_int (Hashtbl.length decided));
        m "peak_rss_mb" "MB"
          (Harness.peak_rss_mb
             ~others_kb:(int_of_float (Layers.counter snap hwm_counter))
             ());
      ]
  in
  ( { Harness.attempted = Array.length sched; failed = !failed; metrics },
    Hashtbl.to_seq table |> List.of_seq
    |> List.map (fun (problem, verdict) -> { Harness.problem; verdict; nodes = -1 })
    |> List.sort Harness.by_problem )

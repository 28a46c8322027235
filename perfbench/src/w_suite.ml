(* suite: Algorithm 1 in process ([Charon.Verify.run], one worker,
   default policy) over a fixed slice of the §7 suite — every network,
   the first [per_network] properties of each.  No problem repeats
   within a pass and no cache is attached.  One unit is one pass over
   the slice, [Harness.lanes] problems at a time, largest networks
   first.  Each
   problem's RNG stream and the order are fixed, so every pass does the
   same work whatever the seed: with seeded streams, one problem more
   or less falsified moved a pass by a third. *)

let per_network = 6

(* Transformer calls per problem: the fixed work that makes verdicts
   and region counts repeat exactly. *)
let steps = 300

(* Wall guard per problem; if it ever fires the operation failed. *)
let guard_s = 60.0

type problem = { net : Nn.Network.t; prop : Common.Property.t; rng_seed : int }

let problems () =
  List.rev (Harness.load_networks ())
  |> List.mapi (fun g (e : Datasets.Suite.entry) ->
         Datasets.Suite.properties ~seed:Harness.suite_seed e
           ~count:per_network
         |> List.mapi (fun i prop ->
                {
                  net = e.Datasets.Suite.net;
                  prop;
                  rng_seed = Harness.suite_seed + (g * per_network) + i;
                }))
  |> List.concat

(* Verify one problem and check the answer: the time, whether it was
   solved, and [Ok] with the verdict label and region count or [Error]
   with what was wrong. *)
let verify p =
  let budget = Common.Budget.create ~seconds:guard_s ~steps () in
  let rng = Linalg.Rng.create p.rng_seed in
  let dt, r =
    Harness.time (fun () ->
        Charon.Verify.run ~budget ~rng ~policy:Charon.Policy.default p.net
          p.prop)
  in
  let delta = Charon.Verify.default_config.Charon.Verify.delta in
  let checked =
    match r.Charon.Verify.outcome with
    | Common.Outcome.Timeout when Common.Budget.steps_used budget < steps ->
        Error "wall guard fired"
    | Common.Outcome.Refuted x
      when not (Checks.witness_ok ~net:p.net ~prop:p.prop ~delta x) ->
        Error "invalid witness"
    | o -> Ok (Common.Outcome.label o, r.Charon.Verify.nodes)
  in
  (dt, Common.Outcome.is_solved r.Charon.Verify.outcome, checked)

let run ~seed:_ ~seconds ~traced ~ledger =
  Harness.ensure_networks ();
  let setup, probs = Harness.start_setup problems in
  let attempted = ref 0 and failed = ref 0 in
  let fail name why =
    incr failed;
    Printf.eprintf "suite: %s: %s\n%!" name why
  in
  (* The first pass's answers; later passes must repeat them exactly. *)
  let first = Hashtbl.create 64 in
  let table = ref [] in
  let unit i =
    let tr = Harness.traced_unit ~traced i in
    let t0 = Harness.now () in
    let results, snaps =
      Harness.in_lanes
        ~start:(fun () -> if tr then Telemetry.enable ())
        ~finish:(fun () -> if tr then Some (Layers.live ()) else None)
        verify probs
    in
    let wall = Harness.now () -. t0 in
    let run_s = ref 0.0 and solved = ref 0 in
    List.iter
      (fun (p, (dt, is_solved, checked)) ->
        incr attempted;
        let name = p.prop.Common.Property.name in
        run_s := !run_s +. dt;
        if is_solved then incr solved;
        match checked with
        | Error why -> fail name why
        | Ok (label, nodes) -> (
            if not (Checks.record ledger ~path:"suite" ~problem:name label)
            then fail name ("verdict contradicts another path: " ^ label);
            match Hashtbl.find_opt first name with
            | None ->
                Hashtbl.replace first name (label, nodes);
                table := { Harness.problem = name; verdict = label; nodes } :: !table
            | Some prev when prev = (label, nodes) -> ()
            | Some _ -> fail name "verdict or region count changed between passes"))
      (List.combine probs results);
    let layers =
      if tr then
        Some
          (Layers.verifier ~run_s:!run_s
             (List.fold_left Layers.merge Layers.empty
                (List.filter_map Fun.id snaps)))
      else None
    in
    ignore (Harness.sample_setup setup Harness.reps_per_unit problems);
    { Harness.wall; solved = !solved; layers }
  in
  let units =
    Harness.repeat_for ~seconds ~min_units:(Harness.min_units ~traced) unit
  in
  ( { Harness.attempted = !attempted; failed = !failed;
      metrics =
        Harness.summarize ~others_kb:!Harness.lane_hwm_kb ~traced
          ~setup_s:(Harness.setup_s setup) units },
    List.sort Harness.by_problem !table )

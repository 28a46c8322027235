(* ai2: the Figure-6 baseline, [Absint.Analyzer.analyze] with the
   AI2-Bounded64 domain (ZJ64) and no refinement, over the suite's
   properties on its six fully connected networks.  ZJ64 on the
   convolutional network takes 7-14 s per property on a 2-core
   machine, longer than a unit, so that network is left to [suite].
   A pass runs [Harness.lanes] analyses at a time, largest networks
   first.  The analysis is deterministic and the order is fixed, so
   every pass does the same work whatever the seed. *)

let per_network = 5

let guard_s = 60.0

let domain = Option.get (Domains.Domain.of_string "ZJ64")

let problems () =
  List.rev (Harness.load_networks ())
  |> List.filter (fun (e : Datasets.Suite.entry) ->
         not e.Datasets.Suite.convolutional)
  |> List.concat_map (fun (e : Datasets.Suite.entry) ->
         Datasets.Suite.properties ~seed:Harness.suite_seed e
           ~count:per_network
         |> List.map (fun prop -> (e.Datasets.Suite.net, prop)))

let run ~seed:_ ~seconds ~traced ~ledger =
  Harness.ensure_networks ();
  let setup, order = Harness.start_setup problems in
  let attempted = ref 0 and failed = ref 0 in
  let fail name why =
    incr failed;
    Printf.eprintf "ai2: %s: %s\n%!" name why
  in
  let first = Hashtbl.create 64 in
  let table = ref [] in
  let unit i =
    let tr = Harness.traced_unit ~traced i in
    let t0 = Harness.now () in
    let results, snaps =
      Harness.in_lanes
        ~start:(fun () -> if tr then Telemetry.enable ())
        ~finish:(fun () -> if tr then Some (Layers.live ()) else None)
        (fun (net, (prop : Common.Property.t)) ->
          let stats = Absint.Analyzer.fresh_stats () in
          let budget = Common.Budget.of_seconds guard_s in
          let v =
            match
              Absint.Analyzer.analyze ~stats ~budget net
                prop.Common.Property.region ~k:prop.Common.Property.target
                domain
            with
            | Absint.Analyzer.Verified -> Some "verified"
            | Absint.Analyzer.Unknown -> Some "unknown"
            | exception Absint.Analyzer.Out_of_budget -> None
          in
          (prop.Common.Property.name, v, stats.Absint.Analyzer.transformer_calls))
        order
    in
    let wall = Harness.now () -. t0 in
    let verified = ref 0 in
    List.iter
      (fun (name, v, calls) ->
        incr attempted;
        match v with
        | None -> fail name "wall guard fired"
        | Some label -> (
            if String.equal label "verified" then incr verified;
            if not (Checks.record ledger ~path:"ai2" ~problem:name label) then
              fail name ("verdict contradicts another path: " ^ label);
            match Hashtbl.find_opt first name with
            | None ->
                Hashtbl.replace first name (label, calls);
                table :=
                  { Harness.problem = name; verdict = label; nodes = calls }
                  :: !table
            | Some prev when prev = (label, calls) -> ()
            | Some _ -> fail name "verdict changed between passes"))
      results;
    let layers =
      if tr then
        Some
          (Layers.verifier
             ~analyze_calls:(float_of_int (List.length order))
             ~proved:(float_of_int !verified) ~run_s:wall
             (List.fold_left Layers.merge Layers.empty
                (List.filter_map Fun.id snaps)))
      else None
    in
    ignore (Harness.sample_setup setup Harness.reps_per_unit problems);
    { Harness.wall; solved = !verified; layers }
  in
  let units =
    Harness.repeat_for ~seconds ~min_units:(Harness.min_units ~traced) unit
  in
  ( { Harness.attempted = !attempted; failed = !failed;
      metrics =
        Harness.summarize ~others_kb:!Harness.lane_hwm_kb ~traced
          ~setup_s:(Harness.setup_s setup) units },
    List.sort Harness.by_problem !table )

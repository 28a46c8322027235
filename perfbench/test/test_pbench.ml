(* Tests of perfbench/src: the percentile and spread rules, the
   core.self_s subtraction, the witness and ledger checks, and the
   arrangement of metrics in BENCHMARK.json order. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_tail_rule () =
  (* Highest percentile with at least ten samples beyond it. *)
  check "19 samples: no percentile" (Stats.tail_level 19 = None);
  check "20 samples: median" (Stats.tail_level 20 = Some 50.0);
  check "39 samples: median" (Stats.tail_level 39 = Some 50.0);
  check "40 samples: p75" (Stats.tail_level 40 = Some 75.0);
  check "99 samples: p75" (Stats.tail_level 99 = Some 75.0);
  check "100 samples: p90" (Stats.tail_level 100 = Some 90.0);
  check "199 samples: p90" (Stats.tail_level 199 = Some 90.0);
  check "200 samples: p95" (Stats.tail_level 200 = Some 95.0);
  check "1000 samples: p99" (Stats.tail_level 1000 = Some 99.0);
  check "10000 samples: p99.9" (Stats.tail_level 10000 = Some 99.9);
  check "p90 needs 100" (Stats.tail_supported ~n:100 ~at:90.0);
  check "p90 not on 99" (not (Stats.tail_supported ~n:99 ~at:90.0));
  check "p95 on 200" (Stats.tail_supported ~n:200 ~at:95.0);
  check "p95 not on 150" (not (Stats.tail_supported ~n:150 ~at:95.0))

let test_percentiles () =
  let xs = List.init 11 (fun i -> float_of_int (i + 1)) in
  check "median of 1..11" (close (Stats.median xs) 6.0);
  check "p90 of 1..11" (close (Stats.percentile xs 90.0) 10.0);
  check "p0 is the minimum" (close (Stats.percentile xs 0.0) 1.0);
  check "interpolates" (close (Stats.percentile [ 1.0; 2.0 ] 50.0) 1.5);
  check "order does not matter" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "mean" (close (Stats.mean [ 1.0; 2.0; 6.0 ]) 3.0)

let test_core_self () =
  check "region minus nested spans"
    (close (Stats.core_self ~region:10.0 ~pgd:7.0 ~absint:2.5) 0.5);
  check "no regions, no core time"
    (close (Stats.core_self ~region:0.0 ~pgd:0.0 ~absint:0.0) 0.0);
  check "share of zero" (close (Stats.share 1.0 0.0) 0.0)

(* Scores are the inputs themselves, so for target 0 the objective is
   x0 - x1: negative exactly where class 1 wins. *)
let test_witness () =
  let net =
    Nn.Network.create ~input_dim:2
      [ Nn.Layer.affine (Linalg.Mat.init 2 2 (fun r c -> if r = c then 1.0 else 0.0)) [| 0.0; 0.0 |] ]
  in
  let prop =
    Common.Property.create ~name:"toy"
      ~region:(Domains.Box.of_center_radius (Linalg.Vec.create 2 0.5) 0.5)
      ~target:0 ()
  in
  let ok x = Checks.witness_ok ~net ~prop ~delta:1e-4 x in
  check "genuine witness accepted" (ok [| 0.2; 0.8 |]);
  check "tampered witness rejected (robust point)" (not (ok [| 0.8; 0.2 |]));
  check "tampered witness rejected (outside the box)" (not (ok [| -0.5; 0.8 |]));
  check "tampered witness rejected (wrong dimension)" (not (ok [| 0.2 |]))

let test_ledger () =
  let l = Checks.create () in
  check "first verdict" (Checks.record l ~path:"suite" ~problem:"p" "verified");
  check "same verdict again" (Checks.record l ~path:"serve" ~problem:"p" "verified");
  check "timeout never contradicts" (Checks.record l ~path:"serve" ~problem:"p" "timeout");
  check "contradiction caught" (not (Checks.record l ~path:"serve" ~problem:"p" "falsified"));
  let path = Filename.temp_file "ledger" ".tsv" in
  Checks.save l path;
  let l2 = Checks.create () in
  Checks.load l2 path;
  Sys.remove path;
  check "ledger survives a round trip"
    (not (Checks.record l2 ~path:"ai2" ~problem:"p" "falsified"))

(* The metric list comes from BENCHMARK.json itself. *)
let test_arrange path =
  let spec = Spec.load path in
  check "setup_s is an end-to-end metric"
    (List.exists (fun (e : Spec.entry) -> e.Spec.name = "setup_s") spec.Spec.end_to_end);
  let e2e = List.map (fun (e : Spec.entry) -> Spec.metric e.Spec.name e.Spec.unit 1.0) spec.Spec.end_to_end in
  check "complete end-to-end set"
    (List.length (Spec.arrange spec ~traced:false e2e) = List.length spec.Spec.end_to_end);
  check "missing end-to-end metric refused"
    (match Spec.arrange spec ~traced:false (List.tl e2e) with _ -> false | exception Failure _ -> true);
  check "unknown metric refused"
    (match Spec.arrange spec ~traced:true [ Spec.metric "nope" "s" 1.0 ] with _ -> false | exception Failure _ -> true);
  check "absent layer reads 0"
    (List.for_all (fun (m : Spec.metric) -> m.Spec.value = 0.0) (Spec.arrange spec ~traced:true []))

let () =
  test_tail_rule ();
  test_percentiles ();
  test_core_self ();
  test_witness ();
  test_ledger ();
  test_arrange Sys.argv.(1);
  if !failures > 0 then exit 1;
  print_endline "perfbench tests ok"

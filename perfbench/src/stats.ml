(* Summary statistics of the end-to-end benchmark.  Every timing the
   benchmark prints goes through here, so the tests in
   perfbench/test pin the rules down. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default): the
   [p]th percentile, [p] in [0, 100], of a non-empty sample. *)
let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted xs in
  let n = Array.length a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: empty sample";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The percentiles a tail may be reported at, highest first, in tenths
   of a percent so the "samples beyond" test below stays exact. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

(* The highest percentile of [ladder] that has at least ten of [n]
   samples beyond it, or [None] when [n] is too small for even the
   median to qualify. *)
let tail_level n =
  List.find_map
    (fun p10 ->
      if n * (1000 - p10) >= 10 * 1000 then Some (float_of_int p10 /. 10.0)
      else None)
    ladder

(* A tail percentile named [at] is sound for [n] samples iff the rule
   above allows [at] or something higher. *)
let tail_supported ~n ~at =
  match tail_level n with Some p -> at <= p | None -> false

(* Self time of Algorithm 1's own code: the verify.region span total
   minus the PGD and abstract-interpretation spans nested inside it.
   Valid only when regions run on one domain, where the nested spans
   cover disjoint parts of the region spans. *)
let core_self ~region ~pgd ~absint = region -. pgd -. absint

let share num den = if den = 0.0 then 0.0 else num /. den

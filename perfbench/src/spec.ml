(* The metric names the benchmark reports, with their units, read
   from BENCHMARK.json so the two never drift apart. *)

type entry = { name : string; unit : string }

type t = {
  end_to_end : entry list;  (** printed by untraced runs ([--trace 0]) *)
  per_layer : entry list;  (** printed by traced runs ([--trace 1]) *)
}

(* One reported value. *)
type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

module J = Telemetry.Jsonw

let parse text =
  let doc = J.parse text in
  let list key f =
    match J.member key doc with
    | Some (J.Arr xs) -> List.map f xs
    | _ -> failwith ("BENCHMARK.json: no list " ^ key)
  in
  let str key x =
    match Option.bind (J.member key x) J.to_string_opt with
    | Some s -> s
    | None -> failwith ("BENCHMARK.json: entry without " ^ key)
  in
  let entry x : entry = { name = str "name" x; unit = str "unit" x } in
  {
    end_to_end = list "end_to_end" entry;
    per_layer = list "per_layer" entry;
  }

let load path = parse (In_channel.with_open_text path In_channel.input_all)

(* Arrange a workload's metrics in spec order.  End-to-end metrics
   must all be present; a per-layer metric the workload does not
   produce reads 0 (see perfbench/README.md for which metric belongs to
   which workload).  An unknown name is a bug in the benchmark. *)
let arrange spec ~traced (ms : metric list) =
  let spec = if traced then spec.per_layer else spec.end_to_end in
  List.iter
    (fun (mt : metric) ->
      if not (List.exists (fun (s : entry) -> String.equal s.name mt.name) spec)
      then failwith ("unknown metric " ^ mt.name))
    ms;
  List.map
    (fun (s : entry) ->
      match List.filter (fun (mt : metric) -> String.equal mt.name s.name) ms with
      | [ mt ] ->
          if not (String.equal mt.unit s.unit) then
            failwith ("unit mismatch for " ^ s.name);
          mt
      | [] when traced -> metric s.name s.unit 0.0
      | [] -> failwith ("missing metric " ^ s.name)
      | _ -> failwith ("duplicate metric " ^ s.name))
    spec

(* Output checks: every verdict the benchmark times is also checked,
   and each violation counts as a failed operation. *)

(* A Falsified verdict must carry a δ-counterexample: a point of the
   input region where the robustness objective F is at most δ. *)
let witness_ok ~net ~(prop : Common.Property.t) ~delta x =
  Linalg.Vec.dim x = Domains.Box.dim prop.Common.Property.region
  && Domains.Box.contains prop.Common.Property.region x
  &&
  let obj = Optim.Objective.create net ~k:prop.Common.Property.target in
  Optim.Objective.value obj x <= delta

(* Verdict ledger: the decided verdict each path gave each problem,
   keyed by problem name.  A problem Verified on one path and
   Falsified on another is a soundness bug on one of them. *)
type ledger = (string, string * string) Hashtbl.t
(* problem -> (verdict, path that gave it) *)

let create () : ledger = Hashtbl.create 64

(* Record [verdict] ("verified" or "falsified"; anything else is
   ignored) for [problem] from [path].  Returns [false] on a
   contradiction with an earlier entry. *)
let record (l : ledger) ~path ~problem verdict =
  match verdict with
  | "verified" | "falsified" -> (
      match Hashtbl.find_opt l problem with
      | Some (v, _) -> String.equal v verdict
      | None ->
          Hashtbl.replace l problem (verdict, path);
          true)
  | _ -> true

let load (l : ledger) path =
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.iter (fun line ->
               match String.split_on_char '\t' line with
               | [ problem; verdict; from ] ->
                   ignore (record l ~path:from ~problem verdict)
               | _ -> ()))

let save (l : ledger) path =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Hashtbl.to_seq l |> List.of_seq
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (problem, (verdict, from)) ->
             Printf.fprintf oc "%s\t%s\t%s\n" problem verdict from));
  Sys.rename tmp path

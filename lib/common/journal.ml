(* The append-only JSONL journal shared by the proof cache and the
   verdict store.  Lines are written by Jsonw's compact printer with
   the version tag first, so a fact's bytes on disk depend only on its
   fields; replay accepts a line only when it parses end to end and
   its "v" is [version]. *)

module J = Telemetry.Jsonw

let version = 1

type t = {
  path : string;
  loaded : int;
  mutex : Mutex.t;
  mutable oc : out_channel option;
}
[@@race.guarded_by "mutex"]

let replay_file path f =
  if not (Sys.file_exists path) then 0
  else
    In_channel.with_open_text path (fun ic ->
        let rec go n =
          match In_channel.input_line ic with
          | None -> n
          | Some line -> (
              match J.parse line with
              | exception J.Parse_error _ -> go n
              | json -> (
                  match J.member "v" json with
                  | Some (J.Int v) when v = version && f json -> go (n + 1)
                  | _ -> go n))
        in
        go 0)

let create path ~replay =
  let loaded = replay_file path replay in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { path; loaded; mutex = Mutex.create (); oc = Some oc }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let append t fields =
  let line = J.to_string (J.Obj (("v", J.Int version) :: fields)) in
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc)

let close t =
  with_lock t (fun () ->
      Option.iter close_out_noerr t.oc;
      t.oc <- None)

let path t = t.path

let loaded t = t.loaded

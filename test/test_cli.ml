(* End-to-end tests of the charon command line: the built charon_cli.exe
   runs as a real subprocess, so exit codes, printed endpoints and the
   client error surface are checked exactly as a shell sees them.

   One daemon serves a temp Unix socket plus an ephemeral TCP port
   under a one-tenant registry; every client subcommand is driven
   against it, and a fake daemon that tears its response checks the
   malformed-response exit.  Every subprocess is time-boxed. *)

module J = Telemetry.Jsonw

let exe = "../bin/charon_cli.exe"

let time_box = 60.0

let temp_path suffix =
  let path = Filename.temp_file "charon_cli" suffix in
  Sys.remove path;
  path

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Reap [pid], SIGKILLing it once [time_box] seconds have passed. *)
let wait_exit pid =
  let started = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. started > time_box ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "charon_cli still running after %gs" time_box
    | 0, _ ->
        Unix.sleepf 0.02;
        go ()
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "charon_cli stopped by signal %d" s
  in
  go ()

(* Run one subcommand to completion: (exit code, stdout, stderr). *)
let run args =
  let out = temp_path ".out" and err = temp_path ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let ofd = open_w out and efd = open_w err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin ofd efd
  in
  Unix.close ofd;
  Unix.close efd;
  let code = wait_exit pid in
  let read path =
    let text = In_channel.with_open_text path In_channel.input_all in
    remove_quietly path;
    text
  in
  let stdout = read out in
  (code, stdout, read err)

let expect_exit msg expected (code, stdout, stderr) =
  if code <> expected then
    Alcotest.failf "%s: exit %d, expected %d\nstdout: %s\nstderr: %s" msg code
      expected stdout stderr

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let rec jget json = function
  | [] -> Some json
  | k :: rest -> Option.bind (J.member k json) (fun j -> jget j rest)

let jstr json path = Option.bind (jget json path) J.to_string_opt

(* The XOR network of Example 3.1 and its box, on which class 1 is
   robust. *)
let with_xor_net f =
  let path = temp_path ".net" in
  Nn.Serial.save path (Nn.Init.xor ());
  Fun.protect ~finally:(fun () -> remove_quietly path) (fun () -> f path)

let xor_job net =
  [ "--network"; net; "--target"; "1"; "--box"; "0.3:0.7,0.3:0.7" ]

(* ------------------------------------------------------------------ *)
(* A real daemon *)

(* Parse the TCP port out of serve's "listening on S + HOST:PORT (...)"
   line. *)
let bound_port line =
  let marker = "127.0.0.1:" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then Alcotest.failf "no TCP endpoint in %S" line
    else if String.sub line i m = marker then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_daemon_round_trip () =
  with_xor_net @@ fun net ->
  let socket = temp_path ".sock" and tenants = temp_path ".json" in
  Out_channel.with_open_text tenants (fun oc ->
      output_string oc {|{"tenants": [{"name": "cli", "key": "cli-key"}]}|});
  let rfd, wfd = Unix.pipe ~cloexec:true () in
  let daemon =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--tcp"; "127.0.0.1:0";
         "--tenants"; tenants; "--workers"; "2" |]
      Unix.stdin wfd Unix.stderr
  in
  Unix.close wfd;
  let ic = Unix.in_channel_of_descr rfd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ());
      close_in_noerr ic;
      remove_quietly socket;
      remove_quietly tenants)
  @@ fun () ->
  (match Unix.select [ rfd ] [] [] time_box with
  | [], _, _ -> Alcotest.fail "serve printed no endpoint"
  | _ -> ());
  let line = input_line ic in
  let port = bound_port line in
  Util.check_true "the kernel's port, not the requested 0" (port > 0);
  let sock = [ "--socket"; socket ] in
  expect_exit "ping" 0 (run ([ "ping" ] @ sock));
  let ((_, out, _) as submitted) =
    run ([ "submit"; "--wait" ] @ sock @ xor_job net)
  in
  expect_exit "submit --wait" 0 submitted;
  let final = J.parse out in
  Alcotest.(check (option string)) "job done" (Some "done")
    (jstr final [ "state" ]);
  Alcotest.(check (option string)) "Example 3.1 verifies" (Some "verified")
    (jstr final [ "verdict"; "verdict" ]);
  let id =
    match Option.bind (J.member "id" final) J.to_int_opt with
    | Some id -> id
    | None -> Alcotest.fail "submit response carries no id"
  in
  let ((_, out, _) as status) =
    run ([ "status"; "--id"; string_of_int id; "--since"; "0" ] @ sock)
  in
  expect_exit "status" 0 status;
  Alcotest.(check (option string)) "status agrees" (Some "done")
    (jstr (J.parse out) [ "state" ]);
  expect_exit "cancel of an unknown id" 1
    (run ([ "cancel"; "--id"; "999999" ] @ sock));
  let tcp = [ "--tcp"; Printf.sprintf "127.0.0.1:%d" port ] in
  expect_exit "stats over TCP without a key is refused" 1
    (run ([ "stats" ] @ tcp));
  let ((_, out, _) as stats) =
    run ([ "stats"; "--json"; "--api-key"; "cli-key" ] @ tcp)
  in
  expect_exit "stats --json over TCP" 0 stats;
  (match jget (J.parse out) [ "tenants" ] with
  | Some (J.Arr ts) ->
      Util.check_true "the configured tenant is listed"
        (List.exists (fun t -> jstr t [ "name" ] = Some "cli") ts)
  | _ -> Alcotest.fail "stats lists no tenants");
  expect_exit "shutdown" 0 (run ([ "shutdown" ] @ sock));
  Alcotest.(check int) "daemon exits 0" 0 (wait_exit daemon)

(* ------------------------------------------------------------------ *)
(* The client error surface *)

(* A daemon that answers one request with a line torn inside its JSON.
   It gives up after [time_box] so a client that never connects cannot
   hang the test. *)
let test_torn_response_exits_1 () =
  with_xor_net @@ fun net ->
  let socket = temp_path ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  let fake =
    Domain.spawn (fun () ->
        match Unix.select [ lfd ] [] [] time_box with
        | [], _, _ -> ()
        | _ ->
            let fd, _ = Unix.accept lfd in
            ignore (input_line (Unix.in_channel_of_descr fd));
            ignore (Unix.write_substring fd "{\"ok\":tr\n" 0 9);
            Unix.close fd)
  in
  let result = run ([ "submit"; "--socket"; socket ] @ xor_job net) in
  Domain.join fake;
  Unix.close lfd;
  remove_quietly socket;
  expect_exit "torn response" 1 result;
  let _, _, stderr = result in
  Util.check_true "says the response was malformed"
    (contains ~sub:"malformed response" stderr)

let test_usage_errors_exit_2 () =
  with_xor_net @@ fun net ->
  let bad_box = [ "--network"; net; "--target"; "1"; "--box"; "0.3:oops" ] in
  expect_exit "malformed --box" 2 (run ([ "submit" ] @ bad_box));
  expect_exit "malformed --center" 2
    (run
       [ "verify"; "--network"; net; "--target"; "1"; "--center"; "0.5,x" ]);
  expect_exit "client port past 65535" 2
    (run [ "ping"; "--tcp"; "127.0.0.1:65577" ]);
  expect_exit "serve port past 65535" 2
    (run [ "serve"; "--socket"; ""; "--tcp"; "127.0.0.1:106770" ])

let () =
  Alcotest.run "cli"
    [
      ( "daemon",
        [ Util.case "serve, clients, shutdown" test_daemon_round_trip ] );
      ( "errors",
        [
          Util.case "torn response exits 1" test_torn_response_exits_1;
          Util.case "usage errors exit 2" test_usage_errors_exit_2;
        ] );
    ]

(* The served side: a [blitz serve] child process and one NDJSON
   connection to it.  All timing uses the monotonic nanosecond clock. *)

let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type server = { pid : int; port : int; log : string }

(* Every child still running; [at_exit] reaps them so no server
   outlives the benchmark, whatever path it exits by. *)
let live : server list ref = ref []

let stop_server s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] s.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

let () = at_exit (fun () -> List.iter stop_server !live)

(* The server's own seed (its hybrid tier's generator) stays fixed: the
   benchmark seed varies the inputs, not the optimizer. *)
let server_seed = 1

let server_flags (w : Gen.t) =
  [ "--workers"; "1"; "--cache-mb"; string_of_int w.Gen.cache_mb; "--seed"; string_of_int server_seed ]
  @ if w.Gen.tenants_flag = "" then [] else [ "--tenants"; w.Gen.tenants_flag ]

let spawn ~blitz ~out_dir ~tag flags =
  let port_file = Filename.concat out_dir (tag ^ ".port") in
  let log = Filename.concat out_dir (tag ^ ".log") in
  (try Sys.remove port_file with Sys_error _ -> ());
  let args = [ "serve"; "--port"; "0"; "--port-file"; port_file ] @ flags in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log_fd)
      (fun () -> Unix.create_process blitz (Array.of_list (blitz :: args)) Unix.stdin log_fd log_fd)
  in
  let s0 = { pid; port = 0; log } in
  live := s0 :: !live;
  let t0 = now_ns () in
  let rec wait_port () =
    let port =
      match In_channel.with_open_text port_file In_channel.input_all with
      | text when String.ends_with ~suffix:"\n" text -> int_of_string_opt (String.trim text)
      | _ | (exception Sys_error _) -> None
    in
    match port with
    | Some p ->
      Sys.remove port_file;
      p
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x.pid <> pid) !live;
        fail "blitz serve exited during start-up (see %s)" log);
      if since_s t0 > 30.0 then fail "blitz serve did not report a port within 30 s";
      Unix.sleepf 0.0005;
      wait_port ()
  in
  let port = wait_port () in
  let s = { s0 with port } in
  live := s :: List.filter (fun x -> x.pid <> pid) !live;
  s

(* Peak resident set of the server, from /proc/<pid>/status. *)
let vm_hwm_mib s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> fail "no VmHWM in %s" path
  | Some l ->
    let kib = Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id in
    float_of_int kib /. 1024.0

(* One connection, with a buffered line reader. *)
type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let connect s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  { fd; buf = Bytes.create (1 lsl 20); lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off = if off < len then go (off + Unix.write_substring c.fd data off (len - off)) in
  go 0

let reply_timeout_s = 60.0

let recv c =
  let rec scan i =
    if i < c.hi then if Bytes.get c.buf i = '\n' then Some i else scan (i + 1) else None
  in
  let rec go from =
    match scan from with
    | Some i ->
      let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
      c.lo <- i + 1;
      line
    | None ->
      if c.lo > 0 then begin
        Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
        c.hi <- c.hi - c.lo;
        c.lo <- 0
      end;
      if c.hi = Bytes.length c.buf then fail "reply line longer than %d bytes" c.hi;
      let scanned = c.hi in
      (match Unix.select [ c.fd ] [] [] reply_timeout_s with
      | [], _, _ -> fail "no reply within %.0f s" reply_timeout_s
      | _ -> ());
      let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
      if n = 0 then fail "server closed the connection";
      c.hi <- c.hi + n;
      go scanned
  in
  go c.lo

let call c line =
  send c line;
  recv c

(* The "result" object of a control reply ([health], [stats]). *)
let control c ~meth =
  let reply = call c (Printf.sprintf "{\"blitz\":1,\"id\":0,\"method\":%S}" meth) in
  match Blitz_util.Json.of_string reply with
  | Ok j -> (
    match Blitz_util.Json.member "result" j with
    | Some r -> r
    | None -> fail "%s reply without result: %s" meth reply)
  | Error e -> fail "%s reply is not JSON (%s)" meth e

type cache_stats = { hits : int; misses : int; insertions : int; entries : int; bytes : int }

let stats c =
  let r = control c ~meth:"stats" in
  let field k =
    match Option.bind (Blitz_util.Json.member "cache" r) (Blitz_util.Json.member k) with
    | Some (Blitz_util.Json.Int i) -> i
    | _ -> fail "stats reply lacks cache.%s" k
  in
  {
    hits = field "hits";
    misses = field "misses";
    insertions = field "insertions";
    entries = field "entries";
    bytes = field "bytes";
  }

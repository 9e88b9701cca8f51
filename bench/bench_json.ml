(* Machine-readable benchmark output, shared by every experiment.

   `bench --json FILE` arms this collector; experiments then call [emit]
   with flat field lists alongside their human-readable tables, and the
   harness writes one pretty-printed JSON document at exit:

     { "schema": "blitz-bench/1",
       "config": { "n": ..., "fast": ... },
       "records": [ { "experiment": "...", ..., "git_rev": "...", "cores": k }, ... ] }

   Records preserve emission order, so a BENCH_*.json file diffs stably
   run-to-run (timing fields aside) and future PRs can accrete their
   perf trajectory here instead of in ad-hoc text files. *)

module Json = Blitz_util.Json

let output : string option ref = ref None
let records : Json.t list ref = ref []

let set_output path = output := Some path

let enabled () = !output <> None

(* Provenance stamped on every record, so a committed artifact names
   the tree and the machine it came from: the checkout's revision
   ("-dirty" when it has uncommitted changes) and the cores the runtime
   reports. *)
let git_rev =
  lazy
    (match Unix.open_process_in "git describe --always --dirty --abbrev=40 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if rev = "" then "unknown" else rev)

let emit ~experiment fields =
  if enabled () then
    records :=
      Json.Obj
        ((("experiment", Json.String experiment) :: fields)
        @ [
            ("git_rev", Json.String (Lazy.force git_rev));
            ("cores", Json.Int (Domain.recommended_domain_count ()));
          ])
      :: !records

let write () =
  match !output with
  | None -> ()
  | Some path ->
    let doc =
      Json.Obj
        [
          ("schema", Json.String "blitz-bench/1");
          ( "config",
            Json.Obj
              [ ("n", Json.Int Bench_config.n); ("fast", Json.Bool Bench_config.fast) ] );
          ("records", Json.List (List.rev !records));
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string ~indent:true doc);
        Out_channel.output_char oc '\n');
    Printf.printf "\nwrote %d record(s) to %s\n" (List.length !records) path

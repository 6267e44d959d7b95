(* Seeded fuzz over the text inputs a user can hand the tools: instance
   files, checkpoints, fault specs and traces.  Each valid input is
   mutated by truncation, byte flips, deleted or repeated spans, and
   hostile numbers (NaN, infinities, overflowing integers); every
   mutant must come back as [Ok] or as [Error] with a non-empty
   one-line message, never as an exception. *)

open Helpers
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Instance_format = Staleroute_wardrop.Instance_format
module Probe = Staleroute_obs.Probe
module Json = Staleroute_obs.Json
module Trace_export = Staleroute_obs.Trace_export
module Trace_reader = Staleroute_obs.Trace_reader
module Rng = Staleroute_util.Rng

(* Integers beyond [max_int] or the array size limit, and floats that
   are not finite or not representable.  Sizes a parser would have to
   allocate (say a node count of 10^8) are left out: they are valid
   input, only large. *)
let hostile =
  [|
    "nan"; "-nan"; "NaN"; "inf"; "-inf"; "infinity"; "1e400"; "-1e400";
    "1e308"; "-0"; "1e-400"; "0x1p-1074"; "99999999999999999999999";
    "4611686018427387903"; "-4611686018427387904"; "-1"; "1.5e"; "0x";
    "--1"; "1_000";
  |]

(* The [k]-th run of digits in [s], as (start, length). *)
let number_runs s =
  let runs = ref [] and i = ref 0 and n = String.length s in
  while !i < n do
    if s.[!i] >= '0' && s.[!i] <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      runs := (!i, !j - !i) :: !runs;
      i := !j
    end
    else incr i
  done;
  Array.of_list (List.rev !runs)

let mutate r s =
  let n = String.length s in
  let pos () = Rng.int r (n + 1) in
  let pick () = hostile.(Rng.int r (Array.length hostile)) in
  match Rng.int r 6 with
  | 0 -> String.sub s 0 (pos ())
  | 1 ->
      let b = Bytes.of_string s in
      for _ = 1 to 1 + Rng.int r 4 do
        if n > 0 then Bytes.set b (Rng.int r n) (Char.chr (Rng.int r 256))
      done;
      Bytes.to_string b
  | 2 -> (
      match number_runs s with
      | [||] -> s ^ pick ()
      | runs ->
          let i, len = runs.(Rng.int r (Array.length runs)) in
          String.sub s 0 i ^ pick () ^ String.sub s (i + len) (n - i - len))
  | 3 ->
      let i = pos () in
      String.sub s 0 i ^ pick () ^ String.sub s i (n - i)
  | 4 ->
      let i = pos () in
      let len = Rng.int r (n - i + 1) in
      String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | _ ->
      let i = pos () in
      let len = Rng.int r (min 40 (n - i) + 1) in
      String.sub s 0 (i + len) ^ String.sub s i (n - i)

let one_line m = m <> "" && not (String.contains m '\n')

(* [parse] on [mutants] mutants of every base input. *)
let fuzz ?(mutants = 300) ~seed name parse bases =
  let r = Rng.create ~seed () in
  List.iter
    (fun base ->
      (match parse base with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: the unmutated input fails: %s" name m);
      for _ = 1 to mutants do
        let input = mutate r base in
        match parse input with
        | Ok () -> ()
        | Error m ->
            if not (one_line m) then
              Alcotest.failf "%s: message %S is not one line (input %S)" name
                m input
        | exception e ->
            Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e)
              input
      done)
    bases

let ignore_ok r = Result.map ignore r

let with_tmp_file content f =
  let path = Filename.temp_file "staleroute_fuzz" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let test_instance_format () =
  let bases =
    List.map Instance_format.to_string
      [ Common.braess (); Common.two_commodity (); Common.grid33 () ]
  in
  fuzz ~seed:1 "Instance_format.parse"
    (fun s -> ignore_ok (Instance_format.parse s))
    bases

(* A faulted two-link run: its first checkpoint, and its whole trace. *)
let faulted_run () =
  let inst = Common.two_link ~beta:4. in
  let config =
    {
      Driver.policy = Policy.uniform_linear inst;
      staleness = Driver.Stale 0.25;
      phases = 6;
      steps_per_phase = 4;
      scheme = Integrator.Rk4;
    }
  in
  let faults =
    match Faults.of_string "drop=0.3,noise=0.3:0.2,seed=3" with
    | Ok spec -> Faults.plan spec
    | Error m -> failwith m
  in
  let buf = Probe.Memory.create () in
  let saved = ref None in
  let (_ : Driver.result) =
    Driver.run ~probe:(Probe.Memory.probe buf) ~faults ~checkpoint_every:3
      ~on_checkpoint:(fun snapshot ->
        if !saved = None then
          saved :=
            Some
              {
                Checkpoint.fingerprint = "fuzz/1";
                snapshot;
                events = Array.copy (Probe.Memory.events buf);
              })
      inst config ~init:(Common.biased_start inst)
  in
  let trace =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Json.to_string Trace_export.header_json);
    Buffer.add_char b '\n';
    Buffer.add_string b (Trace_export.events_to_string (Probe.Memory.events buf));
    Buffer.contents b
  in
  (Option.get !saved, trace)

let test_checkpoint () =
  let c, _ = faulted_run () in
  let base = Json.to_string (Checkpoint.to_json c) in
  fuzz ~seed:2 "Checkpoint.of_json"
    (fun s -> Result.bind (Json.of_string s) (fun j -> ignore_ok (Checkpoint.of_json j)))
    [ base ];
  fuzz ~mutants:100 ~seed:3 "Checkpoint.load"
    (fun s -> with_tmp_file s (fun path -> ignore_ok (Checkpoint.load ~path)))
    [ base ]

let test_faults () =
  fuzz ~mutants:500 ~seed:4 "Faults.of_string"
    (fun s -> ignore_ok (Faults.of_string s))
    [
      "none";
      "drop=0.3,outage=0.05:4,seed=7";
      "delay=0.2:0.5,partial=0.1:0.3,noise=0.2:0.3";
      "outage=0.1:2:9,drop=0";
    ];
  (* Numbers that parse but are no probability, rate or seed. *)
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Error m -> check_true (s ^ ": one-line error") (one_line m)
      | Ok _ -> Alcotest.failf "Faults.of_string %S accepted" s)
    [
      "drop=nan"; "drop=inf"; "drop=1e400"; "delay=0.2:nan"; "noise=0.1:inf";
      "partial=0.5:-0.1"; "outage=nan"; "outage=0.1:nan"; "outage=0.1:inf";
      "seed=99999999999999999999999"; "outage=0.1:2:1e3";
    ]

let test_trace_reader () =
  let _, trace = faulted_run () in
  fuzz ~seed:5 "Trace_reader.read_file"
    (fun s -> with_tmp_file s (fun path -> ignore_ok (Trace_reader.read_file path)))
    [ trace ];
  (* The writer spells an infinity [inf]; a literal that overflows to
     one is damage, not a value.  No driver stamps an event with a
     non-finite time, so a [nan] or [inf] time is refused too. *)
  List.iter
    (fun line ->
      with_tmp_file line (fun path ->
          match Trace_reader.read_file path with
          | Error m -> check_true (line ^ ": one-line error") (one_line m)
          | Ok _ -> Alcotest.failf "Trace_reader.read_file accepted %S" line))
    [
      {|{"ev":"board_repost","time":1e400}|};
      {|{"ev":"board_repost","time":-1e400}|};
      {|{"ev":"phase_start","index":0,"time":0,"phi":99e999}|};
      {|{"ev":"board_repost","time":nan}|};
      {|{"ev":"board_repost","time":-inf}|};
      {|{"ev":"fault","time":inf,"index":0,"kind":"drop","arg":0}|};
    ]

let suite =
  [
    case "instance files" test_instance_format;
    case "checkpoints" test_checkpoint;
    case "fault specs" test_faults;
    case "traces" test_trace_reader;
  ]

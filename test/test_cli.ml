(* oqmc_run's refusals, driven through the built binary: unusable run
   parameters and retired knobs exit 125 naming the reason, on the
   command line and in a deck.  The binary's path is the first
   argument. *)

let exe = ref ""
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run oqmc_run with [args] (plus [-i] of a deck of [deck] lines, when
   given) in a scratch directory; exit code and stdout ^ stderr. *)
let run ?deck args =
  let dir = Filename.temp_dir "oqmc_cli" "" in
  let out = Filename.concat dir "out" in
  let deck_path = Filename.concat dir "in" in
  let args =
    match deck with
    | None -> args
    | Some lines ->
        let oc = open_out deck_path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc;
        args @ [ "-i"; deck_path ]
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Unix.create_process !exe
      (Array.of_list (!exe :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | _ -> -1
  in
  let text = read_file out in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ out; deck_path ];
  Sys.rmdir dir;
  (code, text)

let refused ?(code = 125) ?deck args ~reason () =
  let c, out = run ?deck args in
  check_int ("exit code: " ^ out) code c;
  Alcotest.(check bool) ("names " ^ reason ^ ": " ^ out) true
    (contains ~sub:reason out)

let dmc = [ "-m"; "dmc"; "-w"; "harmonic"; "-b"; "2"; "-s"; "3" ]

let harmonic_deck =
  [ "method = dmc"; "workload = harmonic"; "walkers = 8"; "blocks = 2";
    "steps = 3" ]

let tau_reason = "tau must be finite and > 0"

let () =
  (match Array.to_list Sys.argv with
  | _ :: path :: _ -> exe := path
  | _ -> failwith "usage: test_cli.exe PATH-TO-oqmc_run.exe");
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "flags",
        [
          Alcotest.test_case "dmc tau = 0 refused" `Quick
            (refused (dmc @ [ "-t"; "0" ]) ~reason:tau_reason);
          Alcotest.test_case "dmc tau = nan refused" `Quick
            (refused (dmc @ [ "-t"; "nan" ]) ~reason:tau_reason);
          Alcotest.test_case "vmc tau = inf refused" `Quick
            (refused [ "-m"; "vmc"; "-w"; "harmonic"; "-t"; "inf" ]
               ~reason:tau_reason);
          Alcotest.test_case "walkers = 0 refused" `Quick
            (refused (dmc @ [ "-n"; "0" ]) ~reason:"walkers must be >= 1");
          Alcotest.test_case "domains = 0 refused" `Quick
            (refused (dmc @ [ "-d"; "0" ]) ~reason:"domains must be >= 1");
          Alcotest.test_case "unknown method refused" `Quick
            (refused [ "-m"; "foo"; "-w"; "harmonic" ]
               ~reason:"method must be vmc or dmc, got \\\"foo\\\"");
          Alcotest.test_case "blocks = 0 refused" `Quick
            (refused [ "-m"; "dmc"; "-w"; "harmonic"; "-b"; "0" ]
               ~reason:"blocks must be >= 1");
          Alcotest.test_case "steps = 0 refused" `Quick
            (refused [ "-m"; "vmc"; "-w"; "harmonic"; "-s"; "0" ]
               ~reason:"steps must be >= 1");
          Alcotest.test_case "ranks = 0 refused" `Quick
            (refused (dmc @ [ "--ranks"; "0" ]) ~reason:"ranks must be >= 1");
          Alcotest.test_case "reduction = 0 refused" `Quick
            (refused [ "-m"; "vmc"; "-w"; "NiO-32"; "-r"; "0" ]
               ~reason:"reduction must be >= 1, got 0");
          Alcotest.test_case "checkpoint_every < 0 refused" `Quick
            (refused (dmc @ [ "--checkpoint-every=-1" ])
               ~reason:"checkpoint_every must be >= 0, got -1");
          Alcotest.test_case "checkpoint_keep = 0 refused" `Quick
            (refused
               (dmc
               @ [ "--checkpoint"; "x.chk"; "--checkpoint-every"; "1";
                   "--checkpoint-keep"; "0" ])
               ~reason:"checkpoint_keep must be >= 1, got 0");
          Alcotest.test_case "precision message kept" `Quick
            (refused
               [ "--precision-dt"; "f16" ]
               ~reason:"oqmc_run: --precision-dt must be f32 or f64");
          Alcotest.test_case "no --autotune flag" `Quick
            (refused ~code:124 [ "--autotune" ] ~reason:"autotune");
          Alcotest.test_case "no steal policy" `Quick (fun () ->
              (* No straggler policy at all: the flag is unknown. *)
              List.iter
                (fun policy ->
                  refused ~code:124
                    (dmc @ [ "--ranks"; "2"; "--straggler-policy"; policy ])
                    ~reason:"straggler-policy" ())
                [ "steal"; "quarantine" ]);
        ] );
      ( "deck",
        [
          Alcotest.test_case "tau = nan refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "tau = nan" ]) []
               ~reason:tau_reason);
          Alcotest.test_case "walkers = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "walkers = 0" ]) []
               ~reason:"walkers must be >= 1");
          Alcotest.test_case "unknown method refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "method = foo" ]) []
               ~reason:"method must be vmc or dmc, got \\\"foo\\\"");
          Alcotest.test_case "blocks = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "blocks = 0" ]) []
               ~reason:"blocks must be >= 1, got 0");
          Alcotest.test_case "steps = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "steps = 0" ]) []
               ~reason:"steps must be >= 1, got 0");
          Alcotest.test_case "ranks = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "ranks = 0" ]) []
               ~reason:"ranks must be >= 1, got 0");
          Alcotest.test_case "reduction = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "reduction = 0" ]) []
               ~reason:"reduction must be >= 1, got 0");
          Alcotest.test_case "checkpoint_every < 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "checkpoint_every = -3" ]) []
               ~reason:"checkpoint_every must be >= 0, got -3");
          Alcotest.test_case "checkpoint_keep = 0 refused" `Quick
            (refused ~deck:(harmonic_deck @ [ "checkpoint_keep = 0" ]) []
               ~reason:"checkpoint_keep must be >= 1, got 0");
          Alcotest.test_case "autotune refused on its line" `Quick
            (refused ~deck:(harmonic_deck @ [ "autotune = true" ]) []
               ~reason:"line 6: unknown key \\\"autotune\\\"");
          Alcotest.test_case "steal refused on its line" `Quick (fun () ->
              List.iter
                (fun policy ->
                  refused
                    ~deck:(harmonic_deck @ [ "straggler_policy = " ^ policy ])
                    [] ~reason:"line 6: unknown key \\\"straggler_policy\\\"" ())
                [ "steal"; "quarantine" ]);
        ] );
    ]

(* potx — post-OPC timing extraction, the command-line driver.

     potx run --bench adder16 --opc model
     potx cells
     potx litho
     potx drc --cells 40 --seed 7
     potx bench --list                       (experiment names live in bench/main.exe) *)

open Cmdliner

let bench_names = [ "c17"; "adder16"; "mult8"; "rand_12x20"; "chains_24x10" ]

let netlist_of_name seed name =
  let rng = Stats.Rng.create seed in
  match List.assoc_opt name (Circuit.Generator.benchmarks rng) with
  | Some n -> n
  | None -> failwith (Printf.sprintf "unknown benchmark %s (have: %s)" name
                        (String.concat ", " bench_names))

(* Worker-domain count: the --domains flag when positive, else the
   POTX_DOMAINS environment variable, else 1 (sequential).  Results
   are bit-identical for any value (see Exec.Pool). *)
let resolve_domains flag =
  if flag > 0 then flag else Exec.Pool.env_domains ~default:1 ()

(* Observability sinks: --trace/--metrics flags when non-empty, else
   the POTX_TRACE/POTX_METRICS environment variables.  With neither,
   tracing stays disabled and the run is byte-identical to an
   uninstrumented build's output. *)
let resolve_sink flag var =
  if flag <> "" then Some flag
  else
    match Sys.getenv_opt var with
    | Some v when String.trim v <> "" -> Some (String.trim v)
    | _ -> None

let with_obs ?(profile = "") ~trace ~metrics f =
  let trace = resolve_sink trace "POTX_TRACE" in
  let metrics = resolve_sink metrics "POTX_METRICS" in
  let profile = resolve_sink profile "POTX_PROFILE" in
  Option.iter Obs.Span.stream_to trace;
  (* --profile needs the span log but no JSONL sink; when --trace
     already enabled (and cleared) the log, piggyback on it rather
     than clearing the spans it is about to report. *)
  if profile <> None && trace = None then Obs.Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | None -> ()
      | Some path ->
          Format.eprintf "%a@." Obs.Span.pp_tree (Obs.Span.events ());
          Obs.Span.disable ();
          Format.eprintf "wrote trace %s@." path);
      (match profile with
      | None -> ()
      | Some path ->
          (* The span log survives disable (it clears on enable only),
             so this also works after the --trace branch above. *)
          let evs = Obs.Span.events () in
          Obs.Span.disable ();
          Obs.Profile.write_chrome_trace path evs;
          Format.eprintf "%a@." Obs.Profile.pp_table evs;
          Format.eprintf "wrote profile %s (%d spans)@." path (List.length evs));
      match metrics with
      | None -> ()
      | Some path ->
          Obs.Metrics.record_peak_rss ();
          Obs.Metrics.save_jsonl_file path Obs.Metrics.global;
          Format.eprintf "wrote metrics %s@." path)
    f

(* ---- run / serve ---- *)

(* The flow config shared by the one-shot run and the resident
   service; both hand it to Timing_opc_serve.Session, which runs the
   flow once and keeps the result warm. *)
let flow_config ~opc ~seed ~dose ~defocus ~domains ~checkpoint_dir ~resume () =
  let base = Timing_opc.Flow.default_config () in
  let opc_style =
    match opc with
    | "none" -> Timing_opc.Flow.No_opc
    | "rule" -> Timing_opc.Flow.Rule_opc
    | "model" -> Timing_opc.Flow.Model_opc
    | s -> failwith ("unknown OPC style " ^ s)
  in
  { base with
    Timing_opc.Flow.seed;
    opc_style;
    condition = Litho.Condition.make ~dose ~defocus;
    domains = resolve_domains domains;
    checkpoint =
      (if checkpoint_dir = "" then None
       else Some (Timing_opc.Checkpoint.create ~dir:checkpoint_dir ~resume)) }

let with_session ~bench config f =
  let netlist = netlist_of_name config.Timing_opc.Flow.seed bench in
  let session = Timing_opc_serve.Session.create ~bench config netlist in
  Fun.protect
    ~finally:(fun () -> Timing_opc_serve.Session.close session)
    (fun () -> f session)

let run_flow bench opc seed dose defocus spread report selective ssta domains
    checkpoint_dir resume trace metrics profile =
  with_obs ~profile ~trace ~metrics @@ fun () ->
  let config =
    flow_config ~opc ~seed ~dose ~defocus ~domains ~checkpoint_dir ~resume ()
  in
  Format.printf "flow: %s, OPC=%s, silicon %a, seed %d, domains %d@." bench opc
    Litho.Condition.pp config.Timing_opc.Flow.condition seed
    config.Timing_opc.Flow.domains;
  with_session ~bench config @@ fun session ->
  Timing_opc_serve.Session.print_report Format.std_formatter session ~spread
    ~report ~selective ~ssta

let serve_flow bench opc seed dose defocus domains socket slowlog_ms slowlog_file
    trace metrics profile =
  with_obs ~profile ~trace ~metrics @@ fun () ->
  let config =
    flow_config ~opc ~seed ~dose ~defocus ~domains ~checkpoint_dir:""
      ~resume:false ()
  in
  (* The slow-query log goes to stderr unless a file is named; it must
     never share the response channel (byte-determinism contract). *)
  let slowlog =
    if slowlog_ms < 0.0 then None
    else
      Some
        ( slowlog_ms,
          if slowlog_file = "" then stderr else open_out slowlog_file )
  in
  (* Diagnostics go to stderr: in stdio mode stdout carries nothing
     but response lines (the golden script test compares its bytes). *)
  Format.eprintf "serve: %s, OPC=%s, silicon %a, seed %d, domains %d@." bench
    opc Litho.Condition.pp config.Timing_opc.Flow.condition seed
    config.Timing_opc.Flow.domains;
  with_session ~bench config @@ fun session ->
  Format.eprintf "ready@.";
  match socket with
  | "" -> Timing_opc_serve.Server.serve_stdio ?slowlog session
  | path ->
      Format.eprintf "listening on %s@." path;
      Timing_opc_serve.Server.serve_socket ?slowlog session ~path

let bench_arg =
  Arg.(value & opt string "c17" & info [ "bench"; "b" ] ~doc:"Benchmark netlist name.")

let opc_arg =
  Arg.(value & opt string "model" & info [ "opc" ] ~doc:"OPC style: none, rule or model.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Placement/noise seed.")

let dose_arg =
  Arg.(value & opt float 1.02 & info [ "dose" ] ~doc:"Silicon exposure dose (1.0 nominal).")

let defocus_arg =
  Arg.(value & opt float 70.0 & info [ "defocus" ] ~doc:"Silicon defocus, nm.")

let spread_arg =
  Arg.(value & opt float 8.0 & info [ "spread" ] ~doc:"Corner CD spread, nm.")

let report_arg =
  Arg.(value & opt int 0 & info [ "report" ] ~doc:"Print the top-N critical paths.")

let selective_arg =
  Arg.(
    value & flag
    & info [ "selective" ]
        ~doc:
          "After the full flow, re-run OPC selectively on the critical gate \
           sites (slack within 5 ps of the worst path) with rule bias \
           elsewhere — the paper's DFM feedback loop — and print the \
           selective timing view.")

let ssta_arg =
  Arg.(
    value & flag
    & info [ "ssta" ]
        ~doc:
          "Append the statistical-timing section: re-measure the chip's CDs \
           over a process window, fit the per-gate channel-length \
           distribution (global + independent components), propagate \
           first-order canonical delay forms through the timing graph \
           (analytic add, Clark's-approximation max) and print per-endpoint \
           slack distributions, criticality probabilities and the \
           Kendall-tau reordering against the drawn and slow-corner \
           rankings.  The section is purely additive: without this flag the \
           output is byte-identical to before it existed.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ]
        ~doc:
          "Worker domains: model-OPC tiles and extraction buckets run as \
           tasks on one pool of this width (0 = take $(b,POTX_DOMAINS) \
           from the environment, else 1).  Results are bit-identical for \
           any value.")

let checkpoint_arg =
  Arg.(
    value & opt string ""
    & info [ "checkpoint" ]
        ~doc:
          "Write stage checkpoints (post-OPC mask geometry, extracted gate \
           CDs) into $(docv), keyed by a content hash of each stage's inputs."
        ~docv:"DIR")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "With $(b,--checkpoint), load matching stage checkpoints instead of \
           recomputing; stale or tampered checkpoints are rejected and the \
           stage recomputes.  A resumed run is byte-identical to a clean one.")

let trace_arg =
  Arg.(
    value & opt string ""
    & info [ "trace" ]
        ~doc:
          "Write span events (JSONL, one object per line) to $(docv); also \
           prints the span tree to stderr.  Empty = take $(b,POTX_TRACE) from \
           the environment, else tracing stays off." ~docv:"FILE")

let metrics_arg =
  Arg.(
    value & opt string ""
    & info [ "metrics" ]
        ~doc:
          "Write the metrics registry (JSONL) to $(docv) when the command \
           exits.  Empty = take $(b,POTX_METRICS) from the environment, else \
           no file is written." ~docv:"FILE")

let profile_arg =
  Arg.(
    value & opt string ""
    & info [ "profile" ]
        ~doc:
          "Record span timings (with per-span allocation) and write a \
           Chrome-trace JSON profile to $(docv) when the command exits — load \
           it in chrome://tracing or Perfetto; the self-time table goes to \
           stderr.  Primary stdout is byte-identical with or without this \
           flag.  Empty = take $(b,POTX_PROFILE) from the environment, else \
           profiling stays off." ~docv:"FILE")

let run_cmd =
  let doc = "run the full post-OPC extraction timing flow on a benchmark" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_flow $ bench_arg $ opc_arg $ seed_arg $ dose_arg $ defocus_arg
      $ spread_arg $ report_arg $ selective_arg $ ssta_arg $ domains_arg
      $ checkpoint_arg $ resume_arg $ trace_arg $ metrics_arg $ profile_arg)

let socket_arg =
  Arg.(
    value & opt string ""
    & info [ "socket" ]
        ~doc:
          "Listen on a Unix-domain socket at $(docv) (one client at a time) \
           instead of answering requests on stdin/stdout." ~docv:"PATH")

let slowlog_arg =
  Arg.(
    value & opt float (-1.0)
    & info [ "slowlog" ]
        ~doc:
          "Log every request slower than $(docv) milliseconds as one \
           structured JSONL line \
           ($(i,{\"type\":\"slowquery\",\"id\":..,\"verb\":..,\"ok\":..,\"wall_ms\":..})) \
           to stderr, or to $(b,--slowlog-file).  Negative = disabled.  The \
           log never shares the response channel, so response bytes are \
           unaffected." ~docv:"MS")

let slowlog_file_arg =
  Arg.(
    value & opt string ""
    & info [ "slowlog-file" ]
        ~doc:"Append slow-query lines to $(docv) instead of stderr."
        ~docv:"FILE")

let serve_cmd =
  let doc =
    "run the flow once, then answer timing queries against the warm state"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Runs the full flow at startup and keeps the placed chip, post-OPC \
         mask, extracted CDs and annotated timing graph resident.  \
         Requests are JSONL, one object per line on stdin (or the socket); \
         each gets exactly one response line, in request order.  Verbs: status, retime, whatif, cds, corner, ssta \
         (process-window fit + canonical-form statistical timing, computed \
         once and served warm), metrics (with optional $(i,\"all\":true) for \
         the full registry plus latency quantiles), profile (wraps another \
         request and returns its Chrome-trace span tree), shutdown — see \
         the protocol reference in README.md.";
      `P
        "Responses are byte-deterministic: the same request script yields \
         identical bytes for any $(b,--domains) value, and \
         each reply equals the matching cold one-shot run." ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_flow $ bench_arg $ opc_arg $ seed_arg $ dose_arg
      $ defocus_arg $ domains_arg $ socket_arg $ slowlog_arg $ slowlog_file_arg
      $ trace_arg $ metrics_arg $ profile_arg)

(* ---- cells ---- *)

let show_cells () =
  let tech = Layout.Tech.node90 in
  Format.printf "%a@." Layout.Tech.pp tech;
  List.iter
    (fun (name, (c : Layout.Cell.t)) ->
      Format.printf "%-10s %5dx%d nm, %d devices, %d shapes@." name c.Layout.Cell.width
        c.Layout.Cell.height
        (List.length c.Layout.Cell.transistors)
        (List.length c.Layout.Cell.shapes))
    (Layout.Stdcell.library tech)

let cells_cmd =
  Cmd.v (Cmd.info "cells" ~doc:"list the standard-cell library") Term.(const show_cells $ const ())

(* ---- litho ---- *)

let show_litho () =
  let tech = Layout.Tech.node90 in
  let model = Litho.Aerial.calibrate (Litho.Model.create ()) tech in
  Format.printf "%a@." Litho.Model.pp model;
  List.iter
    (fun (k : Litho.Model.kernel) ->
      Format.printf "  kernel sigma=%.0fnm weight=%+.3f@." k.Litho.Model.sigma
        k.Litho.Model.weight)
    model.Litho.Model.kernels

let litho_cmd =
  Cmd.v (Cmd.info "litho" ~doc:"show the calibrated optical model") Term.(const show_litho $ const ())

(* ---- drc ---- *)

let run_drc n seed =
  let tech = Layout.Tech.node90 in
  let rng = Stats.Rng.create seed in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n in
  Format.printf "%a@." Layout.Chip.pp chip;
  Format.printf "%a@." Layout.Drc.pp_report (Layout.Drc.check_chip chip)

let drc_cmd =
  let cells = Arg.(value & opt int 30 & info [ "cells" ] ~doc:"Random cells to place.") in
  Cmd.v (Cmd.info "drc" ~doc:"place a random block and run design-rule checks")
    Term.(const run_drc $ cells $ seed_arg)

(* ---- liberty ---- *)

let export_liberty path =
  let tech = Layout.Tech.node90 in
  let env = Circuit.Delay_model.default_env tech in
  let lib = Circuit.Nldm.build_library env in
  Circuit.Liberty.save_file path env lib;
  Format.printf "wrote %s (%d cells)@." path (List.length Circuit.Cell_lib.all)

let liberty_cmd =
  let out =
    Arg.(value & opt string "post_opc_timing.lib" & info [ "o"; "out" ] ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "liberty" ~doc:"characterise the cell library and write a Liberty file")
    Term.(const export_liberty $ out)

(* ---- export ---- *)

let export_layout bench seed path =
  let netlist = netlist_of_name seed bench in
  let config = { (Timing_opc.Flow.default_config ()) with Timing_opc.Flow.seed } in
  let chip = Timing_opc.Flow.place config netlist in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Layout.Io.write_chip ppf chip;
  Format.pp_print_flush ppf ();
  close_out oc;
  Format.printf "wrote %s (%a)@." path Layout.Chip.pp chip

let export_cmd =
  let out =
    Arg.(value & opt string "layout.txt" & info [ "o"; "out" ] ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"place a benchmark and dump the flattened layout as text")
    Term.(const export_layout $ bench_arg $ seed_arg $ out)

(* ---- cds ---- *)

let export_cds bench seed path domains trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let config =
    { (Timing_opc.Flow.default_config ()) with
      Timing_opc.Flow.seed;
      domains = resolve_domains domains }
  in
  let r = Timing_opc.Flow.run config (netlist_of_name seed bench) in
  (* Exact (hex-float) CDs: a diff of two exports compares the CDs
     themselves, not a decimal-printing round trip. *)
  Cdex.Csv.save_file ~exact:true path r.Timing_opc.Flow.cds;
  Format.printf "wrote %s (%d gate-CD records)@." path (List.length r.Timing_opc.Flow.cds)

let cds_cmd =
  let out = Arg.(value & opt string "gates.csv" & info [ "o"; "out" ] ~doc:"Output path.") in
  Cmd.v
    (Cmd.info "cds" ~doc:"run the flow and export the extracted gate CDs as CSV")
    Term.(
      const export_cds $ bench_arg $ seed_arg $ out $ domains_arg
      $ trace_arg $ metrics_arg)

(* ---- obs-check ---- *)

(* Validate trace/metrics JSONL written by [--trace]/[--metrics]: every
   line parses, spans cover every flow stage, and the metrics carry a
   healthy spread of distinct names.  The CI smoke run in bin/check.sh
   gates on this. *)

let flow_stages = [ "place"; "opc"; "litho"; "cdex"; "annotate"; "sta" ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The litho simulation counter and the checkpoint store's counters
   are registered at module load, so any captured metrics file carries
   them; a flow binary that fails to surface them has lost its
   wiring. *)
let required_metrics =
  [ "litho.simulations"; "flow.checkpoint.saved"; "flow.checkpoint.loaded";
    "flow.checkpoint.rejected" ]

let obs_check trace metrics min_metrics require_nonzero serve =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let parse_lines what path =
    if not (Sys.file_exists path) then begin
      problem "%s: %s file does not exist" path what;
      []
    end
    else begin
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines =
        String.split_on_char '\n' text
        |> List.map String.trim
        |> List.filter (fun l -> l <> "")
      in
      if lines = [] then problem "%s: %s file is empty" path what;
      List.filter_map
        (fun line ->
          match Obs.Json.parse line with
          | Ok j -> Some j
          | Error e ->
              problem "%s: unparsable JSONL line (%s)" path e;
              None)
        lines
    end
  in
  if trace = "" && metrics = "" then
    problem "nothing to check: pass --trace and/or --metrics";
  if trace <> "" then begin
    let spans = parse_lines "trace" trace in
    let names =
      List.filter_map
        (fun j ->
          match (Obs.Json.member "type" j, Obs.Json.member "name" j) with
          | Some (Obs.Json.Str "span"), Some (Obs.Json.Str n) -> Some n
          | _ ->
              problem "%s: line is not a span event" trace;
              None)
        spans
    in
    List.iter
      (fun stage ->
        if not (List.exists (contains ~needle:stage) names) then
          problem "%s: no span covers flow stage %S" trace stage)
      flow_stages;
    if
      not
        (List.for_all
           (fun j ->
             match Obs.Json.member "wall_s" j with
             | Some (Obs.Json.Num w) -> w >= 0.0
             | _ -> false)
           spans)
    then problem "%s: span without a non-negative wall_s timing" trace;
    Format.printf "obs-check: %s: %d spans, %d distinct names@." trace
      (List.length spans)
      (List.length (List.sort_uniq String.compare names))
  end;
  if metrics <> "" then begin
    let ms = parse_lines "metrics" metrics in
    let names =
      List.filter_map
        (fun j ->
          match (Obs.Json.member "type" j, Obs.Json.member "name" j) with
          | Some (Obs.Json.Str ("counter" | "gauge" | "histogram")), Some (Obs.Json.Str n)
            -> Some n
          | _ ->
              problem "%s: line is not a counter/gauge/histogram" metrics;
              None)
        ms
      |> List.sort_uniq String.compare
    in
    if List.length names < min_metrics then
      problem "%s: only %d distinct metric names (want >= %d)" metrics
        (List.length names) min_metrics;
    List.iter
      (fun required ->
        if not (List.mem required names) then
          problem "%s: missing metric %S" metrics required)
      required_metrics;
    let value_of name =
      List.find_map
        (fun j ->
          match (Obs.Json.member "name" j, Obs.Json.member "value" j) with
          | Some (Obs.Json.Str n), Some (Obs.Json.Num v) when n = name -> Some v
          | _ -> None)
        ms
    in
    List.iter
      (fun name ->
        match value_of name with
        | Some v when v > 0.0 -> ()
        | Some v -> problem "%s: metric %S is %g, want > 0" metrics name v
        | None -> problem "%s: metric %S has no value to test" metrics name)
      require_nonzero;
    (* --serve: the latency-histogram contract of the timing service —
       histograms are present at all, and every verb the session
       counted also observed into its serve.latency.<verb> histogram. *)
    if serve then begin
      let typed = List.filter_map Obs.Report.metric_of_json ms in
      let hists =
        List.filter_map
          (fun (n, v) ->
            match v with Obs.Metrics.Histogram h -> Some (n, h) | _ -> None)
          typed
      in
      if hists = [] then problem "%s: no histograms at all (want serve.latency.*)" metrics
      else if
        not
          (List.exists
             (fun (n, _) -> String.starts_with ~prefix:"serve.latency." n)
             hists)
      then problem "%s: no serve.latency.* histogram" metrics;
      List.iter
        (fun (n, v) ->
          match v with
          | Obs.Metrics.Counter c
            when c > 0 && String.starts_with ~prefix:"serve.verb." n ->
              let verb = String.sub n 11 (String.length n - 11) in
              (match List.assoc_opt ("serve.latency." ^ verb) hists with
              | Some h when h.Obs.Metrics.count > 0 -> ()
              | Some _ ->
                  problem "%s: serve.latency.%s histogram is empty" metrics verb
              | None ->
                  problem "%s: verb %S was counted but has no serve.latency.%s histogram"
                    metrics verb verb)
          | _ -> ())
        typed
    end;
    Format.printf "obs-check: %s: %d metrics, %d distinct names@." metrics
      (List.length ms) (List.length names)
  end
  else begin
    if require_nonzero <> [] then problem "--require-nonzero needs --metrics";
    if serve then problem "--serve needs --metrics"
  end;
  match List.rev !problems with
  | [] -> Format.printf "obs-check: OK@."
  | ps ->
      List.iter (fun p -> Format.eprintf "obs-check: %s@." p) ps;
      exit 1

let obs_check_cmd =
  let trace =
    Arg.(value & opt string "" & info [ "trace" ] ~doc:"Trace JSONL to validate." ~docv:"FILE")
  in
  let metrics =
    Arg.(
      value & opt string ""
      & info [ "metrics" ] ~doc:"Metrics JSONL to validate." ~docv:"FILE")
  in
  let min_metrics =
    Arg.(
      value & opt int 10
      & info [ "min-metrics" ] ~doc:"Minimum distinct metric names required.")
  in
  let require_nonzero =
    Arg.(
      value & opt_all string []
      & info [ "require-nonzero" ]
          ~doc:
            "Fail unless the named counter/gauge has a value > 0 in the \
             metrics file (repeatable)." ~docv:"NAME")
  in
  let serve =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Check the timing-service latency contract: the metrics file \
             must contain at least one histogram, and every \
             $(i,serve.verb.<v>) counter > 0 must have a populated \
             $(i,serve.latency.<v>) histogram beside it.")
  in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:"validate trace/metrics JSONL produced by --trace/--metrics")
    Term.(const obs_check $ trace $ metrics $ min_metrics $ require_nonzero $ serve)

(* ---- obs-report ---- *)

(* Human summary over captured observability files: per-verb latency
   quantiles, worker-pool occupancy and the
   per-stage wall/allocation table out of a --metrics dump, plus the
   span self-time table out of a --trace dump. *)

let obs_report metrics trace =
  if metrics = "" && trace = "" then begin
    Format.eprintf "obs-report: pass --metrics and/or --trace@.";
    exit 2
  end;
  if metrics <> "" then begin
    let ms = Obs.Report.read_jsonl_file metrics in
    if ms = [] then begin
      Format.eprintf "obs-report: %s: no parsable metrics@." metrics;
      exit 1
    end;
    Format.printf "obs-report: %s (%d metrics)@." metrics (List.length ms);
    let latency =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Obs.Metrics.Histogram h
            when String.starts_with ~prefix:"serve.latency." name ->
              Some (String.sub name 14 (String.length name - 14), h)
          | _ -> None)
        ms
    in
    if latency <> [] then begin
      Format.printf "@.service latency (ms):@.";
      Format.printf "  %-12s %8s %9s %9s %9s %9s@." "verb" "count" "p50" "p95"
        "p99" "mean";
      List.iter
        (fun (verb, (h : Obs.Metrics.histogram_snapshot)) ->
          let q p = Obs.Report.quantile h p in
          let mean =
            if h.Obs.Metrics.count = 0 then 0.0
            else h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count
          in
          Format.printf "  %-12s %8d %9.3f %9.3f %9.3f %9.3f@." verb
            h.Obs.Metrics.count (q 0.5) (q 0.95) (q 0.99) mean)
        latency
    end;
    (match Obs.Report.pool_names ms with
    | [] -> ()
    | pools ->
        Format.printf "@.worker pools:@.";
        List.iter
          (fun pool ->
            let g suffix =
              Option.value ~default:0.0
                (Obs.Report.gauge_of
                   (Printf.sprintf "exec.pool.%s.%s" pool suffix) ms)
            in
            match Obs.Report.pool_occupancy ~pool ms with
            | Some occ ->
                Format.printf
                  "  %-12s domains=%.0f up=%.3fs busy=%.3fs occupancy=%.1f%%@."
                  pool (g "domains") (g "up_s") (g "busy_s") (occ *. 100.0)
            | None ->
                Format.printf "  %-12s (no up_s gauge: pool was not shut down)@."
                  pool)
          pools);
    let stages =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Obs.Metrics.Gauge w
            when String.ends_with ~suffix:".wall_s" name
                 && not (String.starts_with ~prefix:"exec.pool." name) ->
              let stage =
                String.sub name 0 (String.length name - String.length ".wall_s")
              in
              Some (stage, w, Obs.Report.gauge_of (stage ^ ".alloc_mw") ms)
          | _ -> None)
        ms
      |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
    in
    if stages <> [] then begin
      Format.printf "@.stages:@.";
      Format.printf "  %-36s %10s %12s@." "stage" "wall_s" "alloc_Mw";
      List.iter
        (fun (stage, w, alloc) ->
          Format.printf "  %-36s %10.3f %12s@." stage w
            (match alloc with
            | Some a -> Printf.sprintf "%.1f" a
            | None -> "-"))
        stages
    end
  end;
  if trace <> "" then begin
    let evs = Obs.Profile.read_jsonl_file trace in
    if evs = [] then begin
      Format.eprintf "obs-report: %s: no parsable span events@." trace;
      exit 1
    end;
    Format.printf "@.span profile: %s (%d spans)@.%a@." trace (List.length evs)
      Obs.Profile.pp_table evs
  end

let obs_report_cmd =
  let metrics =
    Arg.(
      value & opt string ""
      & info [ "metrics" ]
          ~doc:"Metrics JSONL (as written by --metrics) to summarise."
          ~docv:"FILE")
  in
  let trace =
    Arg.(
      value & opt string ""
      & info [ "trace" ]
          ~doc:"Trace JSONL (as written by --trace) to summarise." ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:
         "summarise captured observability files: latency quantiles, pool \
          occupancy, per-stage wall/alloc, span self-time")
    Term.(const obs_report $ metrics $ trace)

let () =
  let doc = "post-OPC critical-dimension extraction for advanced timing analysis" in
  let info = Cmd.info "potx" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; serve_cmd; cells_cmd; litho_cmd; drc_cmd;
            liberty_cmd; export_cmd; cds_cmd; obs_check_cmd;
            obs_report_cmd ]))

(* One pass of one benchmark workload, in a fresh process.

     pass.exe --workload NAME --seed N --trace 0|1

   Sets the workload up, runs its timed section once and prints one
   JSON object as the last line of stdout: set-up and timed wall time,
   peak RSS, attempted and failed operations, the MD5 of the output the
   workload's user sees, per-kind request latencies and, with
   [--trace 1], the per-layer ledger read back from [Obs] spans and
   metrics.  Only public entry points are called ([Timing_opc.Flow],
   [Timing_opc_serve.Session], [Circuit.Generator], [Obs]); every call
   is wrapped in a [bench.*] span so the traced ledger attributes the
   benchmark's own glue too.  [perfbench/run.py] runs the passes and
   checks the digests. *)

module Flow = Timing_opc.Flow
module Session = Timing_opc_serve.Session

let t_start = Unix.gettimeofday ()

let span name f = Obs.Span.with_ ~name f

(* ---- the pass record ------------------------------------------------ *)

type result = {
  setup_s : float;
  wall_s : float;
  attempted : int;
  failed : int;
  digest : string;
  latencies : (string * float list) list;  (** kind -> seconds *)
  mix : (string * int) list;  (** serve_mix verb counts *)
}

let md5 s = Digest.to_hex (Digest.string s)

(* Set-up shared by every workload: generate the netlist and calibrate
   the litho model (memoised per process, so the flow's own
   [flow.litho_model] stage is a hit afterwards). *)
let prepare ~domains generate =
  let netlist = span "bench.generator" generate in
  let config = { (Flow.default_config ()) with Flow.domains } in
  span "bench.litho_model" (fun () -> ignore (Flow.litho_model config));
  (config, netlist)

let degraded () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "flow.degraded_gates")

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let single ~setup_s ~wall_s text =
  {
    setup_s;
    wall_s;
    attempted = 1;
    failed = (if degraded () > 0 then 1 else 0);
    digest = md5 text;
    latencies = [];
    mix = [];
  }

(* ---- flow_cold: the batch sign-off run ------------------------------ *)

let flow_cold () =
  let config, netlist =
    prepare ~domains:2 (fun () -> Circuit.Generator.ripple_adder ~bits:8)
  in
  let setup_s = Unix.gettimeofday () -. t_start in
  let text, wall_s =
    timed (fun () ->
        let s =
          span "bench.session_create" (fun () ->
              Session.create ~bench:"adder8" config netlist)
        in
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        span "bench.print_report" (fun () ->
            Session.print_report ppf s ~spread:8.0 ~report:0 ~selective:false
              ~ssta:false);
        Format.pp_print_flush ppf ();
        span "bench.session_close" (fun () -> Session.close s);
        Buffer.contents buf)
  in
  single ~setup_s ~wall_s text

(* ---- window_ssta: process-window re-measure on warm state ----------- *)

let pp_ssta (v : Flow.ssta_view) ppf corners =
  let var = v.Flow.variation in
  Format.fprintf ppf "%a@." Sta.Ssta.pp_fit v.Flow.fit;
  Format.fprintf ppf "variation: dL=%+.4fnm sigma_g=%.4fnm sigma_l=%.4fnm@."
    var.Sta.Ssta.mean_shift var.Sta.Ssta.sigma_global var.Sta.Ssta.sigma_local;
  Format.fprintf ppf "ssta    : %a@." Sta.Ssta.pp_summary v.Flow.ssta;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Sta.Ssta.pp_endpoint e)
    v.Flow.ssta.Sta.Ssta.endpoints;
  List.iter
    (fun ((c : Sta.Corners.corner), view) ->
      Format.fprintf ppf "corner %a: %a@." Sta.Corners.pp c Sta.Timing.pp_summary
        view)
    corners

let window_ssta () =
  let config, netlist =
    prepare ~domains:1 (fun () -> Circuit.Generator.ripple_adder ~bits:4)
  in
  let r = span "bench.flow_run" (fun () -> Flow.run config netlist) in
  let setup_s = Unix.gettimeofday () -. t_start in
  let (view, corners), wall_s =
    timed (fun () ->
        let view = span "bench.ssta" (fun () -> Flow.ssta r) in
        let corners =
          span "bench.corner_views" (fun () -> Flow.corner_views r ~spread:8.0)
        in
        (view, corners))
  in
  single ~setup_s ~wall_s (Format.asprintf "%a" (pp_ssta view) corners)

(* ---- serve_mix: a warm what-if session ------------------------------ *)

type kind = Read | Corner | Move

let kind_name = function Read -> "read" | Corner -> "corner" | Move -> "move"

let n_reads = 3000

let n_corners = 4

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The closed-loop request script, a pure function of [seed] and the
   netlist/die: reads ([retime], [whatif] resize, [cds] region) with a
   few writes mixed in at seeded positions — [corner] queries, each at
   a defocus no earlier request or the base run simulated, and one
   [whatif] move per gate in seeded order.  A move's cost (a re-OPC)
   depends mostly on which gate moves, so moving every gate once keeps
   the script's work nearly the same for every seed. *)
let serve_script ~seed netlist die =
  let rng = Random.State.make [| seed |] in
  let gates =
    Array.map (fun (g : Circuit.Netlist.gate) -> g.Circuit.Netlist.gname)
      netlist.Circuit.Netlist.gates
  in
  let outputs = Array.of_list netlist.Circuit.Netlist.primary_outputs in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let { Geometry.Rect.lx; ly; hx; hy } = die in
  let coord lo hi = lo + Random.State.int rng (max 1 (hi - lo)) in
  (* Distinct whole-nm defocus values away from the base run's silicon
     and OPC conditions. *)
  let defocus =
    let base = Flow.default_config () in
    let silicon = base.Flow.condition.Litho.Condition.defocus in
    let pool =
      List.init 150 (fun i -> float_of_int (i + 1))
      |> List.filter (fun d -> d <> silicon)
      |> Array.of_list
    in
    shuffle rng pool;
    pool
  in
  let kinds =
    Array.concat
      [
        Array.make n_reads Read;
        Array.make n_corners Corner;
        Array.make (Array.length gates) Move;
      ]
  in
  shuffle rng kinds;
  let movers = Array.copy gates in
  shuffle rng movers;
  let corner_i = ref 0 and move_i = ref 0 in
  (* Draws are sequenced with [let] so the script does not depend on
     the compiler's argument evaluation order. *)
  let line = function
    | Read -> (
        match Random.State.int rng 3 with
        | 0 ->
            if Random.State.bool rng then {|{"verb":"retime"}|}
            else Printf.sprintf {|{"verb":"retime","endpoint":%d}|} (pick outputs)
        | 1 ->
            let gate = pick gates in
            let dl = float_of_int (Random.State.int rng 81 - 40) /. 10.0 in
            Printf.sprintf {|{"verb":"whatif","gate":"%s","dl":%.1f}|} gate dl
        | _ ->
            let x0 = coord lx hx in
            let y0 = coord ly hy in
            let x1 = coord x0 hx in
            let y1 = coord y0 hy in
            Printf.sprintf {|{"verb":"cds","lx":%d,"ly":%d,"hx":%d,"hy":%d}|} x0
              y0 x1 y1)
    | Corner ->
        let defocus = defocus.(!corner_i) in
        incr corner_i;
        let dose = 1.0 +. (float_of_int (Random.State.int rng 9 - 4) /. 200.0) in
        Printf.sprintf {|{"verb":"corner","dose":%.3f,"defocus":%.0f}|} dose defocus
    | Move ->
        let gate = movers.(!move_i) in
        incr move_i;
        let sign = if Random.State.bool rng then 1 else -1 in
        let dx = sign * 100 * (1 + Random.State.int rng 6) in
        let dy = 100 * (Random.State.int rng 5 - 2) in
        Printf.sprintf {|{"verb":"whatif","gate":"%s","dx":%d,"dy":%d}|} gate dx dy
  in
  Array.to_list (Array.map (fun k -> (k, line k)) kinds)

let serve_mix ~seed =
  let config, netlist = prepare ~domains:1 Circuit.Generator.c17 in
  let s =
    span "bench.session_create" (fun () -> Session.create ~bench:"c17" config netlist)
  in
  let die =
    match Layout.Chip.die (Session.run s).Flow.chip with
    | Some d -> d
    | None -> failwith "serve_mix: empty die"
  in
  let script = span "bench.script" (fun () -> serve_script ~seed netlist die) in
  let setup_s = Unix.gettimeofday () -. t_start in
  let failed = ref 0 in
  let buf = Buffer.create (1 lsl 20) in
  let timings, wall_s =
    timed (fun () ->
        let timings =
          List.map
            (fun (kind, line) ->
              let reply, dt =
                timed (fun () ->
                    span "bench.handle_line" (fun () ->
                        let resp = Session.handle_line s line in
                        if Result.is_error resp.Timing_opc_serve.Protocol.reply then
                          incr failed;
                        Timing_opc_serve.Protocol.response_to_string resp))
              in
              Buffer.add_string buf reply;
              Buffer.add_char buf '\n';
              (kind, dt))
            script
        in
        span "bench.session_close" (fun () -> Session.close s);
        timings)
  in
  let of_kind k = List.filter_map (fun (k', dt) -> if k' = k then Some dt else None) timings in
  let kinds = [ Read; Corner; Move ] in
  {
    setup_s;
    wall_s;
    attempted = List.length script;
    failed = !failed + (if degraded () > 0 then 1 else 0);
    digest = md5 (Buffer.contents buf);
    latencies = List.map (fun k -> (kind_name k, of_kind k)) kinds;
    mix = List.map (fun k -> (kind_name k, List.length (of_kind k))) kinds;
  }

(* ---- the per-layer ledger ------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> loop ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

(* Per-layer metrics.  Span figures come from [Obs.Profile] over the
   whole pass (set-up and timed section): [_s] is inclusive wall time
   summed over calls, [_self_s] self time summed over calls and
   domains.  Counters and gauges are read by name from the global
   registry.  A metric whose span never ran or whose instrument is not
   registered in this process reads 0 and is listed as absent, so
   deleting a layer needs no edit here. *)
let ledger ~pass_wall_s =
  let events = Obs.Span.events () in
  let rows = Obs.Profile.aggregate events in
  let row name = List.find_opt (fun (r : Obs.Profile.row) -> r.name = name) rows in
  let span_field f name = Option.map f (row name) in
  let wall = span_field (fun r -> r.Obs.Profile.wall_s) in
  let self = span_field (fun r -> r.Obs.Profile.self_wall_s) in
  let snapshot = Obs.Metrics.snapshot Obs.Metrics.global in
  let metric name =
    match List.assoc_opt name snapshot with
    | Some (Obs.Metrics.Counter n) -> Some (float_of_int n)
    | Some (Obs.Metrics.Gauge g) -> Some g
    | Some (Obs.Metrics.Histogram _) | None -> None
  in
  let ( let+ ) x f = Option.map f x in
  let ( and+ ) a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Time the calling domain spends outside every span.  Pool workers
     record their task spans as roots of their own domain, so the main
     domain's self times tile its wall time without double counting. *)
  let main = (Domain.self () :> int) in
  let rec covered acc (n : Obs.Profile.node) =
    let acc = if n.event.Obs.Span.domain = main then acc +. n.self_wall_s else acc in
    List.fold_left covered acc n.children
  in
  let attributed = List.fold_left covered 0.0 (Obs.Profile.tree events) in
  (* Worker pools publish exec.pool.<name>.{busy_s,up_s,domains}. *)
  let pools =
    List.filter_map
      (fun (name, _) ->
        match String.split_on_char '.' name with
        | [ "exec"; "pool"; pool; "busy_s" ] -> Some pool
        | _ -> None)
      snapshot
  in
  let pool_metric p suffix =
    Option.value ~default:0.0 (metric (Printf.sprintf "exec.pool.%s.%s" p suffix))
  in
  let pool_sum f =
    if pools = [] then None else Some (List.fold_left (fun acc p -> acc +. f p) 0.0 pools)
  in
  let busy = pool_sum (fun p -> pool_metric p "busy_s") in
  let capacity = pool_sum (fun p -> pool_metric p "up_s" *. pool_metric p "domains") in
  let gc = Gc.quick_stat () in
  let values =
    [
      ("flow.run_s", "s", wall "flow.run");
      ("flow.opc_s", "s", wall "flow.opc");
      ("flow.cdex_s", "s", wall "flow.cdex");
      ("flow.place_s", "s", wall "flow.place");
      ("flow.ssta_s", "s", wall "flow.ssta");
      ("flow.extract_at_s", "s", wall "flow.extract_at");
      ("flow.reopc_chip_s", "s", wall "flow.reopc_chip");
      (* calibration runs in set-up; the flow's own stage is then a hit *)
      ( "flow.litho_model_s", "s",
        let+ a = wall "bench.litho_model" in
        a +. Option.value ~default:0.0 (wall "flow.litho_model") );
      ( "flow.unattributed_frac", "ratio",
        Some (ratio (Float.max 0.0 (pass_wall_s -. attributed)) pass_wall_s) );
      ("litho.simulate_self_s", "s", self "litho.simulate");
      ("litho.simulations", "count", metric "litho.simulations");
      ( "litho.simulate_ms", "ms",
        span_field
          (fun r -> 1000.0 *. ratio r.Obs.Profile.self_wall_s (float_of_int r.count))
          "litho.simulate" );
      ( "litho.simulate_alloc_mw", "Mw",
        span_field (fun r -> r.Obs.Profile.self_alloc_w /. 1e6) "litho.simulate" );
      ("litho.cache.hits", "count", metric "litho.cache.hits");
      ("litho.cache.misses", "count", metric "litho.cache.misses");
      ("litho.cache.evictions", "count", metric "litho.cache.evictions");
      ( "litho.cache.hit_rate", "ratio",
        let+ h = metric "litho.cache.hits" and+ m = metric "litho.cache.misses" in
        ratio h (h +. m) );
      ("litho.cache.bytes", "bytes", metric "litho.cache.bytes");
      ("opc.correct_s", "s", wall "opc.correct");
      ("opc.correct_self_s", "s", self "opc.correct");
      ("opc.iterations", "count", metric "opc.iterations");
      ("opc.epe_sites", "count", metric "opc.epe_sites");
      ("opc.dirty_tiles", "count", metric "opc.dirty_tiles");
      ("opc.clean_tiles", "count", metric "opc.clean_tiles");
      ( "opc.dirty_frac", "ratio",
        let+ d = metric "opc.dirty_tiles" and+ c = metric "opc.clean_tiles" in
        ratio d (d +. c) );
      ("cdex.extract_s", "s", wall "cdex.extract");
      ("cdex.gates", "count", metric "cdex.gates");
      ("cdex.tiles", "count", metric "cdex.tiles");
      ("annotate.build_s", "s", wall "annotate.build");
      ("sta.incremental_s", "s", wall "sta.incremental");
      ("sta.incremental.reevaluated", "count", metric "sta.incremental.reevaluated");
      ("sta.analyze_s", "s", wall "sta.analyze");
      ("sta.analyses", "count", metric "sta.analyses");
      ("sta.ssta_s", "s", wall "sta.ssta");
      ( "exec.pool.occupancy", "ratio",
        let+ b = busy and+ c = capacity in
        ratio b c );
      ("exec.pool.busy_s", "s", busy);
      ("serve.requests", "count", metric "serve.requests");
      ("serve.errors", "count", metric "serve.errors");
      ("gc.minor_gw", "Gw", Some (gc.Gc.minor_words /. 1e9));
      ("gc.major_collections", "count", Some (float_of_int gc.Gc.major_collections));
      ( "gc.top_heap_mb", "MB",
        Some (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) );
    ]
  in
  ( List.map (fun (k, unit, v) -> (k, unit, Option.value ~default:0.0 v)) values,
    List.filter_map (fun (k, _, v) -> if v = None then Some k else None) values )

(* ---- output --------------------------------------------------------- *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let str s = Printf.sprintf "%S" s

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let () =
  let workload = ref "" and seed = ref 0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flow_cold | window_ssta | serve_mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 record spans for the per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pass.exe --workload NAME --seed N --trace 0|1";
  if !trace = 1 then Obs.Span.enable ();
  let r =
    match !workload with
    | "flow_cold" -> flow_cold ()
    | "window_ssta" -> window_ssta ()
    | "serve_mix" -> serve_mix ~seed:!seed
    | w ->
        prerr_endline ("pass: unknown workload " ^ w);
        exit 2
  in
  let pass_wall_s = Unix.gettimeofday () -. t_start in
  let ledger =
    if !trace = 1 then begin
      Obs.Span.disable ();
      let values, absent = ledger ~pass_wall_s in
      [
        ( "ledger",
          obj
            (List.map
               (fun (k, unit, v) -> (k, obj [ ("value", num v); ("unit", str unit) ]))
               values) );
        ("absent", arr (List.map str absent));
      ]
    end
    else []
  in
  print_endline
    (obj
       ([
          ("workload", str !workload);
          ("seed", string_of_int !seed);
          ("setup_s", num r.setup_s);
          ("wall_s", num r.wall_s);
          ("pass_wall_s", num pass_wall_s);
          ("peak_rss_mb", num (peak_rss_mb ()));
          ("attempted", string_of_int r.attempted);
          ("failed", string_of_int r.failed);
          ("digest", str r.digest);
          ( "latencies_s",
            obj (List.map (fun (k, xs) -> (k, arr (List.map num xs))) r.latencies) );
          ("mix", obj (List.map (fun (k, n) -> (k, string_of_int n)) r.mix));
        ]
       @ ledger))

module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

let small_chip () =
  let rng = Stats.Rng.create 23 in
  Layout.Placer.place tech
    { Layout.Placer.default_config with Layout.Placer.row_width = 6000 }
    rng
    [ ("u0", "INV_X1"); ("u1", "NAND2_X1"); ("u2", "NOR2_X1"); ("u3", "INV_X2") ]

(* ---- Gate_cd ---- *)

let fake_gate =
  {
    Layout.Chip.inst = "u0";
    cell_name = "INV_X1";
    tname = "MN0";
    kind = Layout.Cell.Nmos;
    gate = G.Rect.make ~lx:0 ~ly:0 ~hx:90 ~hy:600;
    drawn_l = 90;
    drawn_w = 600;
    bent = false;
  }

let test_gate_cd_stats () =
  let cd =
    {
      Cdex.Gate_cd.gate = fake_gate;
      condition = Litho.Condition.nominal;
      cds = [ 88.0; 90.0; 95.0 ];
      slices_requested = 3;
      printed = true;
    }
  in
  Alcotest.(check (float 1e-9)) "mean" 91.0 (Cdex.Gate_cd.mean_cd cd);
  Alcotest.(check (float 1e-9)) "min" 88.0 (Cdex.Gate_cd.min_cd cd);
  Alcotest.(check (float 1e-9)) "delta" 1.0 (Cdex.Gate_cd.delta_cd cd);
  match Cdex.Gate_cd.profile cd with
  | Some p ->
      Alcotest.(check (float 1e-9)) "profile width" 600.0
        (Device.Gate_profile.total_width p)
  | None -> Alcotest.fail "profile expected"

let test_gate_cd_unprinted () =
  let cd =
    {
      Cdex.Gate_cd.gate = fake_gate;
      condition = Litho.Condition.nominal;
      cds = [];
      slices_requested = 3;
      printed = false;
    }
  in
  checkb "no profile" true (Cdex.Gate_cd.profile cd = None);
  Alcotest.check_raises "mean raises"
    (Invalid_argument "Gate_cd.mean_cd: no printed slices") (fun () ->
      ignore (Cdex.Gate_cd.mean_cd cd))

(* ---- Extract ---- *)

let test_extract_all_gates () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let gates = Layout.Chip.gates chip in
  let cds =
    Cdex.Extract.extract m [ Litho.Condition.nominal ]
      ~mask:(Cdex.Extract.drawn_source chip) ~gates ~slices:5 ()
    |> List.hd
  in
  checki "one record per gate" (List.length gates) (List.length cds);
  List.iter
    (fun (cd : Cdex.Gate_cd.t) ->
      checkb "printed" true cd.Cdex.Gate_cd.printed;
      let v = Cdex.Gate_cd.mean_cd cd in
      checkb "CD within 20% of drawn" true (v > 72.0 && v < 108.0))
    cds

let test_extract_condition_sensitivity () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let gates = Layout.Chip.gates chip in
  let mean_at condition =
    let cds =
      Cdex.Extract.extract m [ condition ] ~mask:(Cdex.Extract.drawn_source chip)
        ~gates ~slices:3 ()
      |> List.hd
    in
    let printed = List.filter (fun c -> c.Cdex.Gate_cd.printed) cds in
    let vals = List.map Cdex.Gate_cd.mean_cd printed in
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  let nominal = mean_at Litho.Condition.nominal in
  let overdose = mean_at (Litho.Condition.make ~dose:1.05 ~defocus:0.0) in
  checkb "dose widens gates" true (overdose > nominal +. 1.0)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Marshalled without sharing, every float is written as its bit
   pattern, so equal bytes is bit-identity. *)
let bits (cds : Cdex.Gate_cd.t list) = Marshal.to_string cds [ Marshal.No_sharing ]

(* One extraction over a 3x2 dose/defocus grid (two distinct defoci)
   equals one single-condition extraction per condition, bit for bit,
   at 1 and 2 domains, and simulates each bucket once per defocus. *)
let test_extract_conditions_reuse () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let gates = Layout.Chip.gates chip in
  let conditions =
    Litho.Condition.grid ~dose_range:(0.97, 1.03) ~dose_steps:3
      ~defocus_range:(0.0, 100.0) ~defocus_steps:2
  in
  let extract ?pool cs =
    Cdex.Extract.extract ?pool m cs ~mask:(Cdex.Extract.drawn_source chip) ~gates
      ~slices:3 ~tile:2000 ()
  in
  let singles = List.map (fun c -> bits (List.hd (extract [ c ]))) conditions in
  let s0 = counter "litho.simulations" and t0 = counter "cdex.tiles" in
  let multi = extract conditions in
  let sims = counter "litho.simulations" - s0 and buckets = counter "cdex.tiles" - t0 in
  checkb "several buckets" true (buckets > 1);
  checki "simulations = distinct defoci x buckets" (2 * buckets) sims;
  checki "one record list per condition" (List.length conditions) (List.length multi);
  checkb "domains 1: multi = per-condition" true (List.map bits multi = singles);
  let par = Exec.Pool.with_pool ~domains:2 (fun pool -> extract ~pool conditions) in
  checkb "domains 2: multi = per-condition" true (List.map bits par = singles)

(* Flow.ssta's default 3x3 window has three defoci: its one extraction
   costs 3 simulations per bucket, not 9. *)
let test_ssta_window_simulations () =
  let r =
    Timing_opc.Flow.run (Identity_helpers.cheap_config ()) (Circuit.Generator.c17 ())
  in
  let s0 = counter "litho.simulations" and t0 = counter "cdex.tiles" in
  ignore (Timing_opc.Flow.ssta r);
  let sims = counter "litho.simulations" - s0 and buckets = counter "cdex.tiles" - t0 in
  checkb "buckets extracted" true (buckets > 0);
  checki "simulations = 3 x buckets" (3 * buckets) sims

(* ---- Context ---- *)

let test_context_classes () =
  let chip = small_chip () in
  let gates = Layout.Chip.gates chip in
  let contexts = List.map (Cdex.Context.classify chip) gates in
  checkb "bent gates found" true (List.mem Cdex.Context.Bent contexts);
  checkb "dense gates found" true (List.mem Cdex.Context.Dense contexts)

let test_context_iso_single_inverter () =
  let chip = Layout.Chip.create tech in
  Layout.Chip.add chip ~iname:"solo" ~cell:(Layout.Stdcell.find tech "INV_X1")
    G.Transform.identity;
  match Layout.Chip.gates chip with
  | g :: _ ->
      checkb "solo gate iso" true (Cdex.Context.classify chip g = Cdex.Context.Iso)
  | [] -> Alcotest.fail "no gates"

(* ---- Annotate ---- *)

let test_annotate_build_and_find () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let gates = Layout.Chip.gates chip in
  let cds =
    Cdex.Extract.extract m [ Litho.Condition.nominal ]
      ~mask:(Cdex.Extract.drawn_source chip) ~gates ~slices:5 ()
    |> List.hd
  in
  let ann = Cdex.Annotate.build ~nmos:Device.Mosfet.nmos_90 ~pmos:Device.Mosfet.pmos_90 cds in
  checki "all gates annotated" (List.length gates) (Cdex.Annotate.size ann);
  List.iter
    (fun g ->
      match Cdex.Annotate.find ann (Layout.Chip.gate_key g) with
      | Some e ->
          checkb "l_on plausible" true
            (e.Cdex.Annotate.l_on > 60.0 && e.Cdex.Annotate.l_on < 120.0);
          checkb "l_off <= l_on + eps" true
            (e.Cdex.Annotate.l_off <= e.Cdex.Annotate.l_on +. 0.1)
      | None -> Alcotest.fail "missing annotation")
    gates

let test_annotate_drawn_identity () =
  let chip = small_chip () in
  let ann = Cdex.Annotate.drawn chip in
  Cdex.Annotate.iter ann (fun _ e ->
      Alcotest.(check (float 1e-9)) "drawn l_on" 90.0 e.Cdex.Annotate.l_on;
      Alcotest.(check (float 1e-9)) "drawn l_off" 90.0 e.Cdex.Annotate.l_off);
  checki "outliers none" 0 (List.length (Cdex.Annotate.outliers ann ~threshold:0.5))

let test_annotate_fold () =
  let chip = small_chip () in
  let ann = Cdex.Annotate.drawn chip in
  let count = Cdex.Annotate.fold ann ~init:0 ~f:(fun _ _ acc -> acc + 1) in
  checki "fold visits all" (Cdex.Annotate.size ann) count

(* ---- Csv ---- *)

let sample_cds =
  [
    {
      Cdex.Gate_cd.gate = fake_gate;
      condition = Litho.Condition.make ~dose:1.02 ~defocus:70.0;
      cds = [ 88.1234; 90.5; 92.0 ];
      slices_requested = 3;
      printed = true;
    };
    {
      Cdex.Gate_cd.gate = { fake_gate with Layout.Chip.tname = "MP0"; kind = Layout.Cell.Pmos };
      condition = Litho.Condition.nominal;
      cds = [];
      slices_requested = 3;
      printed = false;
    };
  ]

let test_csv_roundtrip () =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Cdex.Csv.write ppf sample_cds;
  Format.pp_print_flush ppf ();
  let back = Cdex.Csv.read (Buffer.contents buf) in
  checki "rows" 2 (List.length back);
  List.iter2
    (fun (a : Cdex.Gate_cd.t) (b : Cdex.Gate_cd.t) ->
      checkb "key" true
        (Layout.Chip.gate_key a.Cdex.Gate_cd.gate = Layout.Chip.gate_key b.Cdex.Gate_cd.gate);
      checkb "printed" true (a.Cdex.Gate_cd.printed = b.Cdex.Gate_cd.printed);
      checki "slice count" (List.length a.Cdex.Gate_cd.cds) (List.length b.Cdex.Gate_cd.cds);
      List.iter2
        (fun x y -> Alcotest.(check (float 1e-3)) "cd value" x y)
        a.Cdex.Gate_cd.cds b.Cdex.Gate_cd.cds;
      checkb "kind" true (a.Cdex.Gate_cd.gate.Layout.Chip.kind = b.Cdex.Gate_cd.gate.Layout.Chip.kind))
    sample_cds back

let test_csv_corner_identity () =
  (* Write -> read structural identity on records annotated at every
     process-window corner.  The CD and dose values are exactly
     representable at the writer's %.4f precision (dyadic fractions),
     so the reloaded records must equal the originals bit for bit --
     no tolerance. *)
  let corners =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 150.0)
  in
  let records =
    List.mapi
      (fun i condition ->
        {
          Cdex.Gate_cd.gate =
            { fake_gate with Layout.Chip.inst = Printf.sprintf "u%d" i };
          condition;
          cds = [ 88.125; 90.5; 91.0625 ];
          slices_requested = 3;
          printed = true;
        })
      corners
  in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Cdex.Csv.write ppf records;
  Format.pp_print_flush ppf ();
  let back = Cdex.Csv.read (Buffer.contents buf) in
  checkb "corner records identical after round-trip" true (back = records)

let test_csv_rejects_bad_header () =
  checkb "bad header" true
    (try ignore (Cdex.Csv.read "not,a,header\n"); false with Failure _ -> true)

let test_csv_annotation_equivalence () =
  (* An annotation built from reloaded CSV matches the original. *)
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Cdex.Csv.write ppf sample_cds;
  Format.pp_print_flush ppf ();
  let back = Cdex.Csv.read (Buffer.contents buf) in
  let build l =
    Cdex.Annotate.build ~nmos:Device.Mosfet.nmos_90 ~pmos:Device.Mosfet.pmos_90 l
  in
  let a = build sample_cds and b = build back in
  Cdex.Annotate.iter a (fun key ea ->
      match Cdex.Annotate.find b key with
      | Some eb ->
          Alcotest.(check (float 1e-2)) "l_on match" ea.Cdex.Annotate.l_on eb.Cdex.Annotate.l_on
      | None -> Alcotest.fail ("missing " ^ key))

let () =
  Alcotest.run "cdex"
    [
      ( "gate_cd",
        [
          Alcotest.test_case "stats" `Quick test_gate_cd_stats;
          Alcotest.test_case "unprinted" `Quick test_gate_cd_unprinted;
        ] );
      ( "extract",
        [
          Alcotest.test_case "all gates" `Slow test_extract_all_gates;
          Alcotest.test_case "condition" `Slow test_extract_condition_sensitivity;
          Alcotest.test_case "conditions reuse" `Slow test_extract_conditions_reuse;
          Alcotest.test_case "ssta window simulations" `Slow
            test_ssta_window_simulations;
        ] );
      ( "context",
        [
          Alcotest.test_case "classes" `Quick test_context_classes;
          Alcotest.test_case "iso" `Quick test_context_iso_single_inverter;
        ] );
      ( "annotate",
        [
          Alcotest.test_case "build/find" `Slow test_annotate_build_and_find;
          Alcotest.test_case "drawn identity" `Quick test_annotate_drawn_identity;
          Alcotest.test_case "fold" `Quick test_annotate_fold;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "corner identity" `Quick test_csv_corner_identity;
          Alcotest.test_case "bad header" `Quick test_csv_rejects_bad_header;
          Alcotest.test_case "annotation equivalence" `Quick test_csv_annotation_equivalence;
        ] );
    ]

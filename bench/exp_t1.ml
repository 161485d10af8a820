(* T1 — Gate CD statistics by OPC style at the nominal condition.
   Paper claim: OPC recovers the mean printed gate CD to the drawn
   target; a residual site-to-site sigma remains that only extraction
   (not the library view) can see. *)

let block_size () = if !Common.quick then 40 else 120

let run () =
  Common.section "T1: gate CD statistics pre/post OPC (nominal)";
  let chip = Common.layout_block ~n:(block_size ()) in
  let drawn_l = float_of_int Common.tech.Layout.Tech.gate_length in
  let row style_name =
    let mask, _ = Common.mask_for chip ~style_name in
    let cds = List.hd (Common.extract chip mask [ Litho.Condition.nominal ]) in
    let printed = List.filter (fun c -> c.Cdex.Gate_cd.printed) cds in
    let vals = Array.of_list (List.map Cdex.Gate_cd.mean_cd printed) in
    let s = Stats.Summary.of_array vals in
    let mean_abs_err =
      Array.fold_left (fun acc v -> acc +. Float.abs (v -. drawn_l)) 0.0 vals
      /. float_of_int (Array.length vals)
    in
    [ style_name;
      string_of_int (List.length cds);
      Printf.sprintf "%.1f%%"
        (100.0 *. float_of_int (List.length printed) /. float_of_int (List.length cds));
      Timing_opc.Report.nm s.Stats.Summary.mean;
      Timing_opc.Report.nm s.Stats.Summary.std;
      Timing_opc.Report.nm s.Stats.Summary.min;
      Timing_opc.Report.nm s.Stats.Summary.max;
      Timing_opc.Report.nm mean_abs_err ]
  in
  Timing_opc.Report.table Common.ppf
    ~title:(Printf.sprintf "gate CD at nominal (drawn = %.0fnm)" drawn_l)
    ~header:[ "opc"; "gates"; "printed"; "meanCD"; "sigma"; "min"; "max"; "mean|dCD|" ]
    [ row "none"; row "rule"; row "model" ]

(* F2 — Printed-minus-drawn gate CD by layout context.  The paper's
   motivation: CD error is systematic in the local layout context, so a
   single global corner cannot represent it. *)

let run () =
  Common.section "F2: delta-CD by layout context (model OPC, silicon condition)";
  let chip = Common.layout_block ~n:(if !Common.quick then 40 else 120) in
  let mask, _ = Common.mask_for chip ~style_name:"model" in
  let condition = (Common.config ()).Timing_opc.Flow.condition in
  Format.printf "  silicon condition: %a@." Litho.Condition.pp condition;
  let cds = List.hd (Common.extract chip mask [ condition ]) in
  let by_context = Hashtbl.create 4 in
  List.iter
    (fun (cd : Cdex.Gate_cd.t) ->
      if cd.Cdex.Gate_cd.printed then begin
        let ctx = Cdex.Context.classify chip cd.Cdex.Gate_cd.gate in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_context ctx) in
        Hashtbl.replace by_context ctx (Cdex.Gate_cd.delta_cd cd :: cur)
      end)
    cds;
  let rows =
    List.filter_map
      (fun ctx ->
        match Hashtbl.find_opt by_context ctx with
        | Some vals when vals <> [] ->
            let s = Stats.Summary.of_list vals in
            Some
              [ Cdex.Context.name ctx;
                string_of_int s.Stats.Summary.n;
                Timing_opc.Report.nm s.Stats.Summary.mean;
                Timing_opc.Report.nm s.Stats.Summary.std;
                Timing_opc.Report.nm s.Stats.Summary.min;
                Timing_opc.Report.nm s.Stats.Summary.max ]
        | Some _ | None -> None)
      Cdex.Context.all
  in
  Timing_opc.Report.table Common.ppf
    ~title:"printed - drawn gate CD by poly context"
    ~header:[ "context"; "gates"; "mean_dCD"; "sigma"; "min"; "max" ] rows;
  (* The distribution itself, as the figure's histogram. *)
  let all =
    List.filter_map
      (fun (cd : Cdex.Gate_cd.t) ->
        if cd.Cdex.Gate_cd.printed then Some (Cdex.Gate_cd.delta_cd cd) else None)
      cds
  in
  let h = Stats.Histogram.create ~lo:(-4.0) ~hi:4.0 ~bins:16 in
  List.iter (Stats.Histogram.add h) all;
  Format.printf "@.dCD histogram over all %d printed gates (nm):@.%a@."
    (List.length all) Stats.Histogram.pp h

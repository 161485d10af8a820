module G = Geometry

type config = {
  epe_tolerance : float;
  conditions : Litho.Condition.t list;
  site_step : int;
  search : float;
}

let default_config (tech : Layout.Tech.t) =
  ignore tech;
  {
    epe_tolerance = 8.0;
    conditions =
      Litho.Condition.corners ~dose_range:(0.96, 1.04) ~defocus_range:(0.0, 120.0);
    site_step = 120;
    search = 120.0;
  }

type violation_kind = Epe_over | Not_printed

type violation = {
  at : G.Point.t;
  kind : violation_kind;
  epe : float;
  condition : Litho.Condition.t;
}

type report = {
  sites : int;
  violations : violation list;
  max_epe : float;
  rms_epe : float;
}

let control_sites config polygon =
  List.concat_map
    (fun e ->
      let n = G.Edge.outward_normal e in
      (* Sites strictly inside the edge span avoid double-counting
         corners shared with the neighbouring edge. *)
      let pts = G.Edge.sample e ~step:config.site_step in
      let pts =
        match pts with
        | _ :: (_ :: _ as rest) -> List.filteri (fun i _ -> i < List.length rest - 1) rest
        | other -> other
      in
      List.map (fun p -> (p, n)) pts)
    (G.Polygon.edges polygon)

let verify model config ~mask ~drawn ~window =
  let shapes =
    List.filter
      (fun p -> G.Rect.contains_point window (G.Rect.center (G.Polygon.bbox p)))
      drawn
  in
  (* Drop control sites on edges covered by an overlapping drawn shape
     (interior to the union, not a print target). *)
  let sites =
    List.concat_map
      (fun p ->
        List.filter
          (fun ((pt : G.Point.t), (n : G.Point.t)) ->
            let probe = G.Point.add pt (G.Point.scale 3 n) in
            not (List.exists (fun q -> q != p && G.Polygon.contains_point q probe) drawn))
          (control_sites config p))
      shapes
  in
  let halo = model.Litho.Model.halo in
  let mask_polys = Mask.in_window mask (G.Rect.inflate window halo) in
  let violations = ref [] in
  let count = ref 0 in
  let sum_sq = ref 0.0 and max_epe = ref 0.0 in
  let image = Litho.Aerial.per_defocus model ~window mask_polys in
  List.iter
    (fun condition ->
      let intensity = image condition in
      let threshold = Litho.Model.printed_threshold model condition in
      List.iter
        (fun ((p : G.Point.t), (n : G.Point.t)) ->
          incr count;
          match
            Litho.Metrology.epe intensity ~threshold ~x:(float_of_int p.G.Point.x)
              ~y:(float_of_int p.G.Point.y) ~nx:(float_of_int n.G.Point.x)
              ~ny:(float_of_int n.G.Point.y) ~search:config.search
          with
          | Some e ->
              sum_sq := !sum_sq +. (e *. e);
              if Float.abs e > !max_epe then max_epe := Float.abs e;
              if Float.abs e > config.epe_tolerance then
                violations := { at = p; kind = Epe_over; epe = e; condition } :: !violations
          | None ->
              violations := { at = p; kind = Not_printed; epe = 0.0; condition } :: !violations)
        sites)
    config.conditions;
  {
    sites = !count;
    violations = !violations;
    max_epe = !max_epe;
    rms_epe = (if !count = 0 then 0.0 else sqrt (!sum_sq /. float_of_int !count));
  }

let pp_report ppf r =
  Format.fprintf ppf "ORC: %d sites, %d violations, max|EPE|=%.2f rms=%.2f"
    r.sites (List.length r.violations) r.max_epe r.rms_epe

module G = Geometry

type config = {
  bar_width : int;
  offset : int;
  min_space : int;
  min_length : int;
  end_margin : int;
}

let default_config (tech : Layout.Tech.t) =
  {
    bar_width = 40;
    offset = 280;
    min_space = tech.Layout.Tech.poly_pitch + (tech.Layout.Tech.poly_pitch / 2);
    min_length = 400;
    end_margin = 60;
  }

(* Bar rectangle for an edge fragment, on the outward side. *)
let bar_of_edge config (e : G.Edge.t) normal =
  let lo, hi = G.Edge.span e in
  let lo = lo + config.end_margin and hi = hi - config.end_margin in
  if hi - lo < config.min_length then None
  else
    let c = G.Edge.perp_coord e in
    let n : G.Point.t = normal in
    match G.Edge.orientation e with
    | G.Edge.Vertical ->
        let x0 =
          if n.G.Point.x > 0 then c + config.offset else c - config.offset - config.bar_width
        in
        Some (G.Rect.make ~lx:x0 ~ly:lo ~hx:(x0 + config.bar_width) ~hy:hi)
    | G.Edge.Horizontal ->
        let y0 =
          if n.G.Point.y > 0 then c + config.offset else c - config.offset - config.bar_width
        in
        Some (G.Rect.make ~lx:lo ~ly:y0 ~hx:hi ~hy:(y0 + config.bar_width))

let insert config ~neighbours polygons =
  let placed = G.Spatial.create ~bucket:2000 in
  let bars = ref [] in
  List.iter
    (fun p ->
      let fragments =
        Fragment.fragment_polygon p ~max_len:100_000 ~line_end_max:0
      in
      List.iter
        (fun (frag : Fragment.t) ->
          let space =
            Rule_opc.space_to_neighbour ~probe:(config.min_space * 2) ~neighbours frag
              ~self:p
          in
          if space >= config.min_space then
            match bar_of_edge config frag.Fragment.edge frag.Fragment.normal with
            | None -> ()
            | Some bar ->
                (* Keep clear of drawn shapes and previously placed bars. *)
                let halo = G.Rect.inflate bar (config.offset / 2) in
                let clear_of_drawn =
                  List.for_all
                    (fun q -> not (G.Rect.overlaps (G.Polygon.bbox q) halo))
                    (neighbours halo)
                in
                let clear_of_bars = G.Spatial.query placed halo = [] in
                if clear_of_drawn && clear_of_bars then begin
                  G.Spatial.insert placed bar ();
                  bars := G.Polygon.of_rect bar :: !bars
                end)
        fragments.Fragment.fragments)
    polygons;
  !bars

let verify_not_printing model conditions ~bars ~mask =
  List.filter
    (fun bar ->
      let bb = G.Polygon.bbox bar in
      let local = G.Rect.inflate bb model.Litho.Model.halo in
      let image =
        Litho.Aerial.per_defocus model ~window:bb
          (List.filter (fun p -> G.Rect.overlaps (G.Polygon.bbox p) local) mask)
      in
      List.exists
        (fun condition ->
          let intensity = image condition in
          let threshold = Litho.Model.printed_threshold model condition in
          let c = G.Rect.center bb in
          Litho.Raster.sample intensity
            (float_of_int c.G.Point.x) (float_of_int c.G.Point.y)
          >= threshold *. 0.95)
        conditions)
    bars

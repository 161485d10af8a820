let box_sizes ~sigma ~passes =
  if passes <= 0 then invalid_arg "Blur.box_sizes: passes must be positive";
  let n = float_of_int passes in
  let w_ideal = sqrt ((12.0 *. sigma *. sigma /. n) +. 1.0) in
  let wl = int_of_float (floor w_ideal) in
  let wl = if wl mod 2 = 0 then wl - 1 else wl in
  let wl = max 1 wl in
  let wu = wl + 2 in
  let wlf = float_of_int wl in
  let m_ideal =
    ((12.0 *. sigma *. sigma) -. (n *. wlf *. wlf) -. (4.0 *. n *. wlf) -. (3.0 *. n))
    /. ((-4.0 *. wlf) -. 4.0)
  in
  let m = int_of_float (Float.round m_ideal) in
  let m = max 0 (min passes m) in
  Array.init passes (fun i -> if i < m then wl else wu)

(* Two nx*ny ping-pong buffers for the vertical passes and two row
   buffers for the horizontal ones; the first row buffer doubles as
   the vertical passes' per-column running sums.  [Array.create_float]
   is enough: every pass writes each element it owns before any pass
   reads it. *)
type scratch = {
  nx : int;
  ny : int;
  a : float array;
  b : float array;
  row1 : float array;
  row2 : float array;
}

let scratch raster =
  let nx = Raster.nx raster and ny = Raster.ny raster in
  { nx;
    ny;
    a = Array.create_float (nx * ny);
    b = Array.create_float (nx * ny);
    row1 = Array.create_float nx;
    row2 = Array.create_float nx }

(* One horizontal box pass of odd width [w] (radius [r]) with zero
   padding: the [nx] pixels of [src] from [so] are written to [dst]
   from [d0].  Each output is read off the running sum before the
   entering pixel is added and the leaving one subtracted.  The head,
   body and tail ranges hold the pixels that have only an entering
   pixel, both, or only a leaving one, so no loop tests a bound.
   [Int.min]/[Int.max] rather than the polymorphic [min]/[max], which
   compile to calls: any call here makes ocamlopt keep the running sum
   on the stack, adding a store and a reload to the dependency chain of
   every pixel. *)
let box_row src so dst d0 nx w =
  let r = (w - 1) / 2 and inv = 1.0 /. float_of_int w in
  let acc = ref 0.0 in
  for ix = 0 to Int.min (nx - 1) r do
    acc := !acc +. src.(so + ix)
  done;
  (* Pixels [0, e) have an entering pixel, pixels [l, nx) a leaving one. *)
  let e = Int.max 0 (nx - r - 1) and l = Int.min nx r in
  for ix = 0 to Int.min e l - 1 do
    dst.(d0 + ix) <- !acc *. inv;
    acc := !acc +. src.(so + ix + r + 1)
  done;
  if e <= l then
    for ix = e to l - 1 do
      dst.(d0 + ix) <- !acc *. inv
    done
  else
    for ix = l to e - 1 do
      dst.(d0 + ix) <- !acc *. inv;
      acc := !acc +. src.(so + ix + r + 1) -. src.(so + ix - r)
    done;
  for ix = Int.max e l to nx - 1 do
    dst.(d0 + ix) <- !acc *. inv;
    acc := !acc -. src.(so + ix - r)
  done

let add_row acc src s nx =
  for ix = 0 to nx - 1 do
    acc.(ix) <- acc.(ix) +. src.(s + ix)
  done

let sub_row acc src s nx =
  for ix = 0 to nx - 1 do
    acc.(ix) <- acc.(ix) -. src.(s + ix)
  done

(* One vertical box pass of odd width [w] from [src] into [out], row
   major: [acc] holds one running sum per column, and each output row
   is read off it before the entering row is added and the leaving row
   subtracted — the per-column operation order of a column-by-column
   sliding window, so the result is bit-identical to it, but every
   access walks a row.  With [blend = Some wt] the output row is added
   into [out] as [out + wt * (acc * inv)] instead of overwriting it.
   Rows with both an entering and a leaving row (the body, when the
   box is shorter than the raster) do all three updates in one loop. *)
let box_v ~acc ~blend src out nx ny w =
  let r = (w - 1) / 2 and inv = 1.0 /. float_of_int w in
  Array.fill acc 0 nx 0.0;
  for iy = 0 to Int.min (ny - 1) r do
    add_row acc src (iy * nx) nx
  done;
  for iy = 0 to ny - 1 do
    let o = iy * nx and e = (iy + r + 1) * nx and l = (iy - r) * nx in
    let enter = iy + r + 1 < ny and leave = iy >= r in
    match blend with
    | None when enter && leave ->
        for ix = 0 to nx - 1 do
          let s = acc.(ix) in
          out.(o + ix) <- s *. inv;
          acc.(ix) <- s +. src.(e + ix) -. src.(l + ix)
        done
    | Some wt when enter && leave ->
        for ix = 0 to nx - 1 do
          let s = acc.(ix) in
          out.(o + ix) <- out.(o + ix) +. (wt *. (s *. inv));
          acc.(ix) <- s +. src.(e + ix) -. src.(l + ix)
        done
    | _ ->
        (match blend with
        | None ->
            for ix = 0 to nx - 1 do
              out.(o + ix) <- acc.(ix) *. inv
            done
        | Some wt ->
            for ix = 0 to nx - 1 do
              out.(o + ix) <- out.(o + ix) +. (wt *. (acc.(ix) *. inv))
            done);
        if enter then add_row acc src e nx;
        if leave then sub_row acc src l nx
  done

let add_gaussian s ~dst ~w ~sigma_px src =
  let nx = s.nx and ny = s.ny in
  if Raster.nx dst <> nx || Raster.ny dst <> ny || Raster.nx src <> nx
     || Raster.ny src <> ny
  then invalid_arg "Blur.add_gaussian: geometry mismatch";
  let mask = Raster.unsafe_data src and image = Raster.unsafe_data dst in
  (* Box widths in pass order; width-1 boxes are the identity. *)
  let widths =
    if sigma_px > 0.25 then
      List.filter (fun bw -> bw > 1) (Array.to_list (box_sizes ~sigma:sigma_px ~passes:3))
    else []
  in
  (* Horizontal: every pass on one row while it is in cache, from the
     mask row through the row buffers into [a].  Vertical: a -> b -> a,
     the last pass blending into the image. *)
  let rec horizontal src so row = function
    | [] -> ()
    | [ bw ] -> box_row src so s.a row nx bw
    | bw :: rest ->
        let buf = if src == s.row1 then s.row2 else s.row1 in
        box_row src so buf 0 nx bw;
        horizontal buf 0 row rest
  in
  let rec vertical src = function
    | [] -> ()
    | [ bw ] -> box_v ~acc:s.row1 ~blend:(Some w) src image nx ny bw
    | bw :: rest ->
        let out = if src == s.a then s.b else s.a in
        box_v ~acc:s.row1 ~blend:None src out nx ny bw;
        vertical out rest
  in
  match widths with
  | [] ->
      for i = 0 to (nx * ny) - 1 do
        image.(i) <- image.(i) +. (w *. mask.(i))
      done
  | _ ->
      for iy = 0 to ny - 1 do
        horizontal mask (iy * nx) (iy * nx) widths
      done;
      vertical s.a widths

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

(* One horizontal box pass of odd width [w] with zero padding, using a
   sliding-window sum per row. *)
let box_h data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    let tmp = Array.make nx 0.0 in
    for iy = 0 to ny - 1 do
      let row = iy * nx in
      let acc = ref 0.0 in
      for ix = 0 to min (nx - 1) r do
        acc := !acc +. data.(row + ix)
      done;
      for ix = 0 to nx - 1 do
        tmp.(ix) <- !acc *. inv;
        let enter = ix + r + 1 and leave = ix - r in
        if enter < nx then acc := !acc +. data.(row + enter);
        if leave >= 0 then acc := !acc -. data.(row + leave)
      done;
      Array.blit tmp 0 data row nx
    done
  end

(* One vertical box pass of odd width [w], row-major: [acc] holds one
   running sum per column, and each output row is read off it before
   the entering row is added and the leaving row subtracted — the same
   per-column operation order as a column-by-column sliding window, so
   the result is bit-identical to it, but every access walks a row.
   [src] receives a copy of the input, since rows that have left the
   window are overwritten in [data] before they are subtracted. *)
let box_v ~src ~acc data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    Array.blit data 0 src 0 (nx * ny);
    Array.fill acc 0 nx 0.0;
    for iy = 0 to min (ny - 1) r do
      let row = iy * nx in
      for ix = 0 to nx - 1 do
        acc.(ix) <- acc.(ix) +. src.(row + ix)
      done
    done;
    for iy = 0 to ny - 1 do
      let row = iy * nx in
      for ix = 0 to nx - 1 do
        data.(row + ix) <- acc.(ix) *. inv
      done;
      let enter = (iy + r + 1) * nx and leave = (iy - r) * nx in
      if iy + r + 1 < ny then
        for ix = 0 to nx - 1 do
          acc.(ix) <- acc.(ix) +. src.(enter + ix)
        done;
      if iy - r >= 0 then
        for ix = 0 to nx - 1 do
          acc.(ix) <- acc.(ix) -. src.(leave + ix)
        done
    done
  end

let gaussian raster ~sigma_px =
  if sigma_px > 0.25 then begin
    let data = Raster.unsafe_data raster in
    let nx = Raster.nx raster and ny = Raster.ny raster in
    let sizes = box_sizes ~sigma:sigma_px ~passes:3 in
    Array.iter (fun w -> box_h data nx ny w) sizes;
    let src = Array.make (nx * ny) 0.0 and acc = Array.make nx 0.0 in
    Array.iter (fun w -> box_v ~src ~acc data nx ny w) sizes
  end

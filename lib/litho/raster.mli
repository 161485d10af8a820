(** Float rasters over a layout window.

    A raster covers [origin + (0..nx*step, 0..ny*step)] in layout
    nanometres; pixel (ix, iy) is centred at
    [origin + ((ix+0.5)*step, (iy+0.5)*step)].  Mask rasterisation is
    area-weighted (anti-aliased), so sub-pixel edge moves change the
    image smoothly — essential for OPC's small trial displacements. *)

type t

(** [create ~origin ~step ~nx ~ny] makes a zero raster; [step] in nm. *)
val create : origin:Geometry.Point.t -> step:float -> nx:int -> ny:int -> t

(** Raster covering [window] inflated by [halo] nm at the given step. *)
val of_window : window:Geometry.Rect.t -> halo:int -> step:float -> t

val nx : t -> int

val ny : t -> int

val step : t -> float

val origin : t -> Geometry.Point.t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val fill : t -> float -> unit

val copy : t -> t

(** [like t] is a fresh zero raster with [t]'s geometry (origin, step,
    nx, ny) — the allocation pattern for accumulation buffers. *)
val like : t -> t

(** Pointwise [dst := dst + w * src]; rasters must share geometry. *)
val blend : dst:t -> src:t -> w:float -> unit

(** Add the coverage fraction of [rect] (in layout nm) to every pixel.
    Parts outside the raster are clipped away.  With [clamp], pixels
    the rect touches are capped at 1.0 after accumulation; because
    contributions are non-negative this is bit-identical to one final
    whole-raster clamp, without ever scanning unpainted pixels. *)
val paint_rect : ?clamp:bool -> t -> Geometry.Rect.t -> unit

(** Paint a polygon via its exact rectangle decomposition, each rect
    as by {!paint_rect}. *)
val paint_polygon : ?clamp:bool -> t -> Geometry.Polygon.t -> unit

(** Bilinear sample at layout coordinates (float nm).  Outside the
    raster the value clamps to the border pixel. *)
val sample : t -> float -> float -> float

(** Layout x-coordinate of pixel-centre column [ix] (and row [iy]). *)
val x_of_ix : t -> int -> float

val y_of_iy : t -> int -> float

(** Mean of all pixels. *)
val mean : t -> float

val max_value : t -> float

(**/**)

(** Direct row-major buffer access; reserved for {!Blur}. *)
val unsafe_data : t -> float array

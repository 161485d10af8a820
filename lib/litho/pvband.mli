(** Process-variability bands: the silicon area that prints under some
    but not all process-window conditions.  The band area over a window
    is the standard printability-robustness metric. *)

type t = {
  inner_area : float;  (** nm^2 printed under every condition *)
  outer_area : float;  (** nm^2 printed under at least one condition *)
  band_area : float;  (** outer - inner *)
  conditions : int;
}

(** [compute model conditions ~window polygons] accumulates the band
    over one raster grid.  It simulates once per distinct defocus, in
    first-occurrence order, and thresholds every condition sharing that
    defocus at its own dose (dose scales the threshold, not the
    intensity), so [litho.simulations] grows by the number of distinct
    defoci.
    @raise Invalid_argument on an empty condition list. *)
val compute :
  Model.t ->
  Condition.t list ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
  t

(** Band area normalised by the drawn area (dimensionless instability
    ratio); drawn area measured over the same window. *)
val band_ratio : t -> drawn_area:float -> float

val pp : Format.formatter -> t -> unit

(** Model-based OPC: iterative edge-placement-error feedback.

    Each iteration simulates the current mask, measures the signed EPE
    at every fragment's control site against the drawn target, and
    moves the fragment against the error with a damping factor.  The
    classic simulate-then-move loop of production OPC engines.  Every
    pass simulates the whole correction window (the hull of the
    targets, plus the model halo) as one aerial image. *)

type config = {
  iterations : int;
  damping : float;  (** fraction of measured EPE corrected per pass *)
  max_len : int;  (** fragment length, nm *)
  line_end_max : int;
  max_displacement : int;  (** clamp, nm *)
  tolerance : float;  (** stop when max |EPE| falls below, nm *)
  search : float;  (** EPE search reach, nm *)
  mask_grid : int;  (** mask manufacturing grid: displacements snap to
                        multiples of this, nm (1 disables) *)
  min_mask_space : int;  (** mask-rule constraint: outward moves stop
                             when the gap to a neighbour shape would
                             drop below this, nm *)
}

val default_config : Layout.Tech.t -> config

type stats = {
  iterations_run : int;
  max_epe : float;  (** final max |EPE| over resolved control sites *)
  rms_epe : float;
  sites : int;
  unresolved : int;  (** control sites with no printed edge in reach *)
}

(** [correct model config ~targets ~context] corrects [targets] with
    [context] shapes frozen but present in every simulation.  Returns
    the corrected target polygons (context is not included in the
    mask) and convergence statistics.  Correction happens at the
    nominal process condition, as in standard flows. *)
val correct :
  Litho.Model.t ->
  config ->
  targets:Geometry.Polygon.t list ->
  context:Geometry.Polygon.t list ->
  Geometry.Polygon.t list * stats

(** Merge per-tile stats into chip totals (site-weighted RMS, max of
    max, summed counts). *)
val merge_stats : stats list -> stats

val pp_stats : Format.formatter -> stats -> unit

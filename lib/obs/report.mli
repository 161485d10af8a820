(** Read-side companion to {!Metrics}: quantile estimation over
    histogram snapshots, parsing a metrics JSONL file back into
    values, and the derived figure [potx obs-report] prints (pool
    occupancy).

    Quantiles are estimated by linear interpolation inside the bucket
    containing the target rank, so they are a deterministic function
    of the (deterministic) bucket counts — exact when observations
    sit on bucket edges, within one bucket width otherwise.  The
    unbounded overflow bucket reports its lower edge (a lower
    bound). *)

val quantile : Metrics.histogram_snapshot -> float -> float
(** [quantile h q] for [q] in [0,1]; [0.0] on an empty histogram. *)

val quantiles : Metrics.histogram_snapshot -> (string * float) list
(** [("p50", _); ("p95", _); ("p99", _)]. *)

val metric_of_json : Json.t -> (string * Metrics.value) option
(** Inverse of {!Metrics.json_of_metric}; [None] on non-metric
    JSON. *)

val read_jsonl_file : string -> (string * Metrics.value) list
(** Parse a metrics JSONL file (as written by
    [Metrics.save_jsonl_file]); skips blank/malformed lines. *)

(** {1 Lookup helpers over a parsed metric list} *)

val find : string -> (string * Metrics.value) list -> Metrics.value option

val gauge_of : string -> (string * Metrics.value) list -> float option

val histogram_of :
  string -> (string * Metrics.value) list -> Metrics.histogram_snapshot option

val pool_names : (string * Metrics.value) list -> string list
(** Pools that published [exec.pool.<pool>.up_s]. *)

val pool_occupancy : pool:string -> (string * Metrics.value) list -> float option
(** busy worker-seconds / (uptime × workers); [None] until the pool
    shut down (up_s is published at shutdown). *)

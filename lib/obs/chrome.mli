(** Chrome trace-event JSON exporter (object form, loadable in Perfetto).

    Processes are replicas, threads are requests; wait intervals nest under
    the request span, audit entries become instant events and recorder time
    series become counter tracks.  Output is deterministically sorted. *)

val to_string : Recorder.t -> string

type t = {
  scheduler : string;
  runtime : Detmt_runtime.Config.t;
  summary : Detmt_analysis.Predict.class_summary option;
  workers : int;
}

let make ?(runtime = Detmt_runtime.Config.default) ?summary ?(workers = 1)
    scheduler =
  if workers < 1 then invalid_arg "Sched_config.make: workers < 1";
  { scheduler; runtime; summary; workers }

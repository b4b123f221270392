(* OpenMetrics text exposition of the metrics registry.

   One deterministic snapshot in the OpenMetrics text format: families are
   sorted by name, dotted metric names are sanitised to [a-zA-Z0-9_] with a
   "detmt_" prefix, counters gain the "_total" suffix, gauges expose their
   last value plus a companion "<name>_peak" family, and histograms emit
   the cumulative "_bucket{le=...}" series from the Hdr's occupied buckets
   plus "_sum"/"_count".  The exposition ends with "# EOF" as the spec
   requires. *)

let sanitize name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "detmt_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* Deterministic number rendering: integers without a fraction, everything
   else with enough digits to round-trip the interesting range. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let export m =
  let buf = Buffer.create 4096 in
  let family name ty = Buffer.add_string buf
      (Printf.sprintf "# TYPE %s %s\n" name ty)
  in
  let sample ?le name v =
    (match le with
    | None -> Buffer.add_string buf (Printf.sprintf "%s %s\n" name v)
    | Some bound ->
      Buffer.add_string buf
        (Printf.sprintf "%s{le=\"%s\"} %s\n" name bound v))
  in
  List.iter
    (fun name ->
      let n = sanitize name in
      match Metrics.view m name with
      | None -> ()
      | Some (Metrics.Counter_view c) ->
        family n "counter";
        sample (n ^ "_total") (string_of_int c)
      | Some (Metrics.Gauge_view g) ->
        family n "gauge";
        sample n (num g.last);
        family (n ^ "_peak") "gauge";
        sample (n ^ "_peak") (num g.peak)
      | Some (Metrics.Hist_view h) ->
        family n "histogram";
        List.iter
          (fun (bound, cum) ->
            sample ~le:(num bound) (n ^ "_bucket") (string_of_int cum))
          (Hdr.cumulative h);
        sample ~le:"+Inf" (n ^ "_bucket") (string_of_int (Hdr.count h));
        sample (n ^ "_sum") (num (Hdr.total h));
        sample (n ^ "_count") (string_of_int (Hdr.count h)))
    (Metrics.names m);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* Unit tests for the statistics library. *)

open Detmt_stats

let b = Alcotest.bool

let feq = Alcotest.(check (float 1e-9))

let summary_of xs =
  let s = Summary.create () in
  List.iter (Summary.add s) xs;
  s

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.check b "mean is nan" true (Float.is_nan (Summary.mean s));
  Alcotest.check b "quantile is nan" true
    (Float.is_nan (Summary.quantile s 0.5))

let test_summary_mean_var () =
  let s = summary_of [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  feq "mean" 5.0 (Summary.mean s);
  feq "variance (unbiased)" (32.0 /. 7.0) (Summary.variance s);
  feq "min" 2.0 (Summary.min s);
  feq "max" 9.0 (Summary.max s);
  feq "total" 40.0 (Summary.total s)

let test_summary_quantiles () =
  let s = summary_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  feq "median" 50.0 (Summary.median s);
  feq "p95" 95.0 (Summary.quantile s 0.95);
  feq "p0 = min" 1.0 (Summary.quantile s 0.0);
  feq "p100 = max" 100.0 (Summary.quantile s 1.0)

let test_summary_add_after_sort () =
  (* Quantile queries must stay correct when samples arrive afterwards. *)
  let s = summary_of [ 5.0; 1.0 ] in
  feq "median of two" 1.0 (Summary.quantile s 0.5);
  Summary.add s 0.5;
  feq "min updated" 0.5 (Summary.min s)

let test_summary_merge () =
  let a = summary_of [ 1.0; 2.0 ] and b' = summary_of [ 3.0; 4.0 ] in
  let m = Summary.merge a b' in
  Alcotest.(check int) "merged count" 4 (Summary.count m);
  feq "merged mean" 2.5 (Summary.mean m);
  Alcotest.(check int) "inputs untouched" 2 (Summary.count a)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_float_row t ~label:"x" [ 3.14159 ];
  let text = Format.asprintf "%a" Table.pp t in
  Alcotest.check b "title present" true
    (String.length text > 0 && String.sub text 0 1 = "T");
  Alcotest.(check int) "two rows" 2 (List.length (Table.rows t));
  Alcotest.check b "float formatted" true
    (List.mem [ "x"; "3.14" ] (Table.rows t))

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "z" ];
  Alcotest.(check string) "csv escaping" "a,b\n\"x,y\",z\n" (Table.to_csv t)

(* RFC 4180 corner cases: label values carrying commas (the windowed-series
   "values" cells), embedded quotes, and both line-break characters must all
   be quoted — and embedded quotes doubled. *)
let test_table_csv_quoting () =
  let t = Table.create ~title:"T" ~columns:[ "label"; "values" ] in
  Table.add_row t [ "shard=0,epoch=2"; "1,2,3" ];
  Table.add_row t [ "say \"hi\""; "a\nb" ];
  Table.add_row t [ "cr\rhere"; "plain" ];
  Alcotest.(check string) "quoted csv"
    ("label,values\n" ^ "\"shard=0,epoch=2\",\"1,2,3\"\n"
   ^ "\"say \"\"hi\"\"\",\"a\nb\"\n" ^ "\"cr\rhere\",plain\n")
    (Table.to_csv t)

let test_series () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:1.0 ~y:10.0;
  Series.add s ~x:2.0 ~y:20.0;
  Alcotest.(check int) "points" 2 (List.length (Series.points s));
  Alcotest.check b "lookup" true (Series.y_at s 2.0 = Some 20.0);
  Alcotest.check b "missing" true (Series.y_at s 9.0 = None)

let test_series_chart_renders () =
  let s = Series.create ~name:"line" in
  List.iter (fun i ->
      Series.add s ~x:(float_of_int i) ~y:(float_of_int (i * i)))
    [ 1; 2; 3; 4 ];
  let text = Format.asprintf "%a" Series.chart [ s ] in
  Alcotest.check b "chart nonempty" true (String.length text > 100);
  Alcotest.check b "legend present" true
    (String.length text > 0
    && (let has needle =
          let n = String.length needle and h = String.length text in
          let rec go i =
            i + n <= h && (String.sub text i n = needle || go (i + 1))
          in
          go 0
        in
        has "A = line"))

let prop_summary_mean_bounded =
  QCheck.Test.make ~count:300 ~name:"mean lies within [min, max]"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = summary_of xs in
      Summary.mean s >= Summary.min s -. 1e-9
      && Summary.mean s <= Summary.max s +. 1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"quantiles are monotone"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = summary_of xs in
      let qs = List.map (Summary.quantile s) [ 0.1; 0.5; 0.9 ] in
      match qs with
      | [ q1; q2; q3 ] -> q1 <= q2 && q2 <= q3
      | _ -> false)

let suite =
  [ ("summary empty", `Quick, test_summary_empty);
    ("summary mean/var", `Quick, test_summary_mean_var);
    ("summary quantiles", `Quick, test_summary_quantiles);
    ("summary add after sort", `Quick, test_summary_add_after_sort);
    ("summary merge", `Quick, test_summary_merge);
    ("table render", `Quick, test_table_render);
    ("table csv", `Quick, test_table_csv);
    ("table csv quoting", `Quick, test_table_csv_quoting);
    ("series", `Quick, test_series);
    ("series chart renders", `Quick, test_series_chart_renders);
    QCheck_alcotest.to_alcotest prop_summary_mean_bounded;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
  ]

let () = Alcotest.run "stats" [ ("stats", suite) ]

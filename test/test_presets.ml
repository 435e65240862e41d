(* Golden regression over the eight Comm_system presets at scale 16, with
   and without dynamic reconfiguration.  Cost, deadline verdict and the
   architecture counts are pinned exactly: synthesis is deterministic, so
   any drift here is a behaviour change that must be reviewed (and, if
   intended, re-pinned from the paste-ready block this test prints). *)

module C = Crusade.Crusade_core
module W = Crusade_workloads.Comm_system

type row = {
  cost : string;  (* "%.3f" of the dollar cost *)
  met : bool;
  n_pes : int;
  n_links : int;
  n_modes : int;
}

let golden =
  [
    (* preset, reconfig, cost, deadlines_met, pes, links, modes *)
    ("A1TR", false, { cost = "819.720"; met = true; n_pes = 9; n_links = 2; n_modes = 7 });
    ("A1TR", true, { cost = "431.320"; met = true; n_pes = 5; n_links = 1; n_modes = 7 });
    ("VDRTX", false, { cost = "1241.560"; met = true; n_pes = 13; n_links = 3; n_modes = 11 });
    ("VDRTX", true, { cost = "736.000"; met = true; n_pes = 8; n_links = 2; n_modes = 12 });
    ("HROST", false, { cost = "1529.520"; met = true; n_pes = 17; n_links = 3; n_modes = 12 });
    ("HROST", true, { cost = "979.040"; met = true; n_pes = 11; n_links = 3; n_modes = 14 });
    ("EST189A", false, { cost = "2197.751"; met = true; n_pes = 23; n_links = 6; n_modes = 17 });
    ("EST189A", true, { cost = "1608.054"; met = true; n_pes = 17; n_links = 5; n_modes = 18 });
    ("HRXC", false, { cost = "2733.120"; met = true; n_pes = 29; n_links = 7; n_modes = 22 });
    ("HRXC", true, { cost = "1792.000"; met = true; n_pes = 19; n_links = 5; n_modes = 22 });
    ("ADMR", false, { cost = "3434.880"; met = true; n_pes = 36; n_links = 9; n_modes = 28 });
    ("ADMR", true, { cost = "2030.560"; met = true; n_pes = 23; n_links = 4; n_modes = 28 });
    ("B192G", false, { cost = "4590.520"; met = true; n_pes = 46; n_links = 15; n_modes = 37 });
    ("B192G", true, { cost = "2462.120"; met = true; n_pes = 26; n_links = 8; n_modes = 37 });
    ("NGXM", false, { cost = "4684.480"; met = true; n_pes = 48; n_links = 14; n_modes = 38 });
    ("NGXM", true, { cost = "2605.920"; met = true; n_pes = 28; n_links = 8; n_modes = 39 });
  ]

let actual_row name reconfig =
  let spec = W.generate Helpers.stock_lib (W.scaled (W.preset name) 16.0) in
  let r = Helpers.synthesize ~lib:Helpers.stock_lib ~reconfig spec in
  {
    cost = Printf.sprintf "%.3f" r.C.cost;
    met = r.C.deadlines_met;
    n_pes = r.C.n_pes;
    n_links = r.C.n_links;
    n_modes = r.C.n_modes;
  }

let show name reconfig { cost; met; n_pes; n_links; n_modes } =
  Printf.sprintf
    "(%S, %b, { cost = %S; met = %b; n_pes = %d; n_links = %d; n_modes = %d });"
    name reconfig cost met n_pes n_links n_modes

let run_all () =
  let drift =
    List.filter_map
      (fun (name, reconfig, expected) ->
        let actual = actual_row name reconfig in
        if actual = expected then None else Some (show name reconfig actual))
      golden
  in
  if drift <> [] then
    Alcotest.failf
      "golden drift in %d row(s); if intended, re-pin with:\n%s"
      (List.length drift)
      (String.concat "\n" drift)

let preset_count () =
  (* The golden table must cover every preset, both variants. *)
  List.iter
    (fun name ->
      List.iter
        (fun reconfig ->
          if
            not
              (List.exists
                 (fun (n, rc, _) -> n = name && rc = reconfig)
                 golden)
          then Alcotest.failf "preset %s reconfig=%b missing from goldens" name reconfig)
        [ false; true ])
    W.preset_names

(* Portfolio goldens: best-of-4 (seed 0, reconfiguration on) is pinned
   for two presets.  The portfolio winner is deterministic for a fixed
   (seed, N) whatever the jobs count, so these rows are as stable as the
   plain goldens above — and jobs=2 here exercises the concurrent path. *)
type portfolio_row = { p_best : int; p_row : row }

let portfolio_golden =
  [
    ("A1TR", { p_best = 0; p_row = { cost = "431.320"; met = true; n_pes = 5; n_links = 1; n_modes = 7 } });
    ("B192G", { p_best = 0; p_row = { cost = "2462.120"; met = true; n_pes = 26; n_links = 8; n_modes = 37 } });
  ]

let actual_portfolio_row name =
  let spec = W.generate Helpers.stock_lib (W.scaled (W.preset name) 16.0) in
  match
    C.Portfolio.run ~n:4 ~options:{ C.default_options with C.jobs = 2 }
      ~flow:(fun o -> C.synthesize ~options:o spec Helpers.stock_lib)
      ~cost:(fun (r : C.result) -> r.C.cost)
      ~met:(fun (r : C.result) -> r.C.deadlines_met)
      ()
  with
  | Error msg -> Alcotest.failf "portfolio synthesis of %s failed: %s" name msg
  | Ok o ->
      let r = o.C.Portfolio.best in
      {
        p_best = o.C.Portfolio.best_index;
        p_row =
          {
            cost = Printf.sprintf "%.3f" r.C.cost;
            met = r.C.deadlines_met;
            n_pes = r.C.n_pes;
            n_links = r.C.n_links;
            n_modes = r.C.n_modes;
          };
      }

let show_portfolio name { p_best; p_row = { cost; met; n_pes; n_links; n_modes } } =
  Printf.sprintf
    "(%S, { p_best = %d; p_row = { cost = %S; met = %b; n_pes = %d; n_links = \
     %d; n_modes = %d } });"
    name p_best cost met n_pes n_links n_modes

let run_portfolio () =
  let drift =
    List.filter_map
      (fun (name, expected) ->
        let actual = actual_portfolio_row name in
        if actual = expected then None else Some (show_portfolio name actual))
      portfolio_golden
  in
  if drift <> [] then
    Alcotest.failf "portfolio golden drift in %d row(s); if intended, re-pin with:\n%s"
      (List.length drift)
      (String.concat "\n" drift)

let suite =
  [
    Alcotest.test_case "golden table covers all presets" `Quick preset_count;
    Alcotest.test_case "preset costs and deadlines pinned" `Slow run_all;
    Alcotest.test_case "portfolio best-of-4 pinned" `Slow run_portfolio;
  ]

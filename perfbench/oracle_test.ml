(* The benchmark's answer checker must accept the service's answer and
   catch a wrong one: a dropped pair, a wrong support, or a pair from a
   different query. *)

open Cfq_perfbench
module Service = Cfq_service.Service
module Frequent = Cfq_mining.Frequent

let () =
  let seed = 5L in
  let sets = Gen.quest ~seed ~n_tx:3000 in
  let info = Gen.item_info ~seed in
  let text = Gen.query ~minsup:0.005 ~s:(0, 700) ~t:(200, 1000) () in
  let other = Gen.query ~minsup:0.005 ~s:(0, 700) ~t:(300, 1000) () in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context (Cfq_txdb.Tx_db.create sets) info)
  in
  let answer t =
    match Service.run service (Cfq_core.Parser.parse t) with
    | Ok a -> a.Service.pairs
    | Error e -> failwith (Service.error_to_string e)
  in
  let pairs = answer text in
  let other_pairs = answer other in
  Service.shutdown service;
  let oracle = Oracle.create () in
  Oracle.add_epoch oracle ~epoch:0 sets info;
  let verdict name pairs ~expect_ok =
    let ok = Oracle.check oracle ~epoch:0 text (Oracle.of_pairs pairs) = None in
    if ok <> expect_ok then begin
      Printf.printf "FAIL: %s: checker said %s\n" name (if ok then "match" else "mismatch");
      exit 1
    end
    else Printf.printf "ok: %s\n" name
  in
  if List.length pairs < 2 || List.length other_pairs = List.length pairs then begin
    print_endline "FAIL: test query too small to perturb";
    exit 1
  end;
  verdict "service answer accepted" pairs ~expect_ok:true;
  verdict "reordered answer accepted" (List.rev pairs) ~expect_ok:true;
  verdict "dropped pair caught" (List.tl pairs) ~expect_ok:false;
  verdict "duplicated pair caught" (List.hd pairs :: pairs) ~expect_ok:false;
  (match pairs with
  | (s, t) :: rest ->
      let s' = { s with Frequent.support = s.Frequent.support + 1 } in
      verdict "wrong support caught" ((s', t) :: rest) ~expect_ok:false;
      verdict "swapped sides caught" ((t, s) :: rest) ~expect_ok:false
  | [] -> ());
  verdict "other query's answer caught" other_pairs ~expect_ok:false

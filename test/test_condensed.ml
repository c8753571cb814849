(* The condensation layer: [Condensed.of_frequent |> to_frequent] must be
   the identity — levels, per-level order, supports and membership — for
   every collection the service caches: unconstrained Apriori output,
   CAP output under random 1-var constraints (where the raw fallback may
   fire), every kernel and domain count, and (via Helpers.db_of_sets) all
   five backend matrices.  On-demand support/membership and the maximal
   wire round-trip are checked against the raw collection.  [Frequent.closed]
   and [Frequent.maximal] (a delete-one walk) are checked against their
   definitional L1-probe forms, kept here as the reference, and on worked
   examples and the covering properties (every frequent set has a closed
   superset of equal support and lies inside some maximal set). *)

open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

(* strict identity: same levels, same per-level order, same supports *)
let frequent_identical a b =
  let level_eq k =
    let la = Frequent.level a k and lb = Frequent.level b k in
    Array.length la = Array.length lb
    && Array.for_all2
         (fun (e1 : Frequent.entry) (e2 : Frequent.entry) ->
           Itemset.equal e1.set e2.set && e1.support = e2.support)
         la lb
  in
  Frequent.max_level a = Frequent.max_level b
  && List.for_all level_eq (List.init (Frequent.max_level a) (fun k -> k + 1))

let frequent_str f =
  String.concat "; "
    (List.map
       (fun (e : Frequent.entry) ->
         Printf.sprintf "%s:%d" (Itemset.to_string e.set) e.support)
       (Frequent.to_list f))

let entries_str l =
  String.concat "; "
    (List.map
       (fun (e : Frequent.entry) ->
         Printf.sprintf "%s:%d" (Itemset.to_string e.set) e.support)
       l)

(* ------------------------------------------------------------------ *)
(* units *)

(* {0,1,2} always co-occur, so its 7 subsets share one support — a single
   closed set; the {3} filler is the second *)
let correlated_db () =
  Helpers.db_of_lists
    (List.init 20 (fun i -> if i < 12 then [ 0; 1; 2 ] else [ 3 ]))

let mine db ~minsup =
  let info = Helpers.small_info 5 in
  let io = Io_stats.create () in
  let out = Apriori.mine db info io ~minsup () in
  out.Apriori.frequent

let condensed_shrinks_correlated () =
  let freq = mine (correlated_db ()) ~minsup:5 in
  Alcotest.(check int) "8 frequent sets" 8 (Frequent.n_sets freq);
  let c = Condensed.of_frequent freq in
  Alcotest.(check bool) "condensed" true (Condensed.is_condensed c);
  Alcotest.(check int) "two closed sets" 2 (Condensed.n_closed c);
  Alcotest.(check int) "n_sets preserved" 8 (Condensed.n_sets c);
  Alcotest.(check bool) "strictly smaller" true
    (Condensed.bytes c < Condensed.raw_bytes c);
  let back = Condensed.to_frequent c in
  Alcotest.(check string) "round-trip identity" (frequent_str freq)
    (frequent_str back);
  Alcotest.(check bool) "structurally identical" true
    (frequent_identical freq back)

let entry set support = { Frequent.set = Itemset.of_list set; support }

let raw_fallback_on_closure_gap () =
  (* {0,1} present without {1}: not downward closed, must stay raw *)
  let freq =
    Frequent.of_levels [ [| entry [ 0 ] 5 |]; [| entry [ 0; 1 ] 5 |] ]
  in
  let c = Condensed.of_frequent ~force:true freq in
  Alcotest.(check bool) "not condensed" false (Condensed.is_condensed c);
  Alcotest.(check bool) "to_frequent is physically the input" true
    (Condensed.to_frequent c == freq)

let raw_fallback_on_support_violation () =
  (* support({1}) < support({0,1}) breaks anti-monotonicity: the closed
     reconstruction would inflate {1}, so condensation must refuse *)
  let freq =
    Frequent.of_levels
      [ [| entry [ 0 ] 5; entry [ 1 ] 3 |]; [| entry [ 0; 1 ] 5 |] ]
  in
  let c = Condensed.of_frequent ~force:true freq in
  Alcotest.(check bool) "not condensed" false (Condensed.is_condensed c)

let raw_weight_matches_model () =
  let freq = mine (correlated_db ()) ~minsup:5 in
  let r = Condensed.raw freq in
  Alcotest.(check bool) "raw stores nothing extra" false (Condensed.is_condensed r);
  Alcotest.(check int) "raw bytes = frequent_weight"
    (Condensed.frequent_weight freq) (Condensed.bytes r)

let wire_round_trip () =
  let freq = mine (correlated_db ()) ~minsup:5 in
  let c = Condensed.of_frequent ~force:true freq in
  let wire = Condensed.encode_maximal c in
  let back = Condensed.decode_maximal wire in
  Alcotest.(check string) "maximal round-trips"
    (entries_str (Condensed.maximal c))
    (entries_str back);
  (* the raw path serializes identically *)
  let wire_raw = Condensed.encode_maximal (Condensed.raw freq) in
  Alcotest.(check string) "condensed and raw wire forms agree" wire wire_raw;
  Alcotest.check_raises "bad magic rejected"
    (Invalid_argument "Condensed.decode_maximal: bad magic") (fun () ->
      ignore (Condensed.decode_maximal "XX1" : Frequent.entry list));
  Alcotest.check_raises "truncation rejected"
    (Invalid_argument "Condensed.decode_maximal: truncated") (fun () ->
      ignore
        (Condensed.decode_maximal (String.sub wire 0 (String.length wire - 1))
          : Frequent.entry list))

(* ------------------------------------------------------------------ *)
(* qcheck: identity round-trip across kernels × domains (× backends via
   CFQ_TEST_* on Helpers.db_of_sets) *)

let kernels = Counting.all_kernels
let domain_grid = [ 1; 3 ]

let gen_mined =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    let* kernel_i = int_range 0 (List.length kernels - 1) in
    let* domains = oneofl domain_grid in
    return (n, db, minsup, kernel_i, domains))

let print_mined (n, db, minsup, kernel_i, domains) =
  Printf.sprintf "minsup=%d kernel=%s domains=%d %s" minsup
    (fst (List.nth kernels kernel_i))
    domains
    (Helpers.print_db (n, db))

let mine_kernel db n ~minsup ~kernel ~domains =
  let info = Helpers.small_info n in
  let io = Io_stats.create () in
  let par = Counting.par ~min_rows_per_domain:1 domains in
  let session = Counting.create_session ~plan:(Counting.plan_of_kernel kernel) () in
  let out = Apriori.mine db info io ~par ~session ~minsup () in
  out.Apriori.frequent

let prop_round_trip (n, db, minsup, kernel_i, domains) =
  let kernel = snd (List.nth kernels kernel_i) in
  let freq = mine_kernel db n ~minsup ~kernel ~domains in
  let c = Condensed.of_frequent ~force:true freq in
  let back = Condensed.to_frequent c in
  if not (frequent_identical freq back) then
    QCheck2.Test.fail_reportf "round-trip mismatch: [%s] became [%s]"
      (frequent_str freq) (frequent_str back);
  (* Apriori output is exactly the frequent sets: always condensable *)
  if Frequent.n_sets freq > 0 && not (Condensed.is_condensed c) then
    QCheck2.Test.fail_reportf "unconstrained mine fell back to raw: [%s]"
      (frequent_str freq);
  (* on-demand support and membership agree with the raw collection on
     every subset of the universe *)
  List.for_all
    (fun s ->
      Condensed.support c s = Frequent.support freq s
      && Condensed.mem c s = Frequent.mem freq s)
    (Helpers.all_subsets n)

(* CAP under random 1-var constraints: the collection may not be downward
   closed (succinct non-anti-monotone atoms), so condensation may fall
   back to raw — but the round-trip must still be the identity, and the
   maximal projection must match the raw collection's *)
let gen_constrained =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    let* cs = list_size (int_range 0 2) Helpers.gen_one_var in
    return (n, db, minsup, cs))

let print_constrained (n, db, minsup, cs) =
  Printf.sprintf "minsup=%d cs=[%s] %s" minsup
    (String.concat "; " (List.map One_var.to_string cs))
    (Helpers.print_db (n, db))

let prop_constrained_round_trip (n, db, minsup, cs) =
  let info = Helpers.small_info n in
  let bundle = Bundle.compile ~nonneg:true info cs in
  let state = Cap.create db info ~minsup bundle in
  let io = Io_stats.create () in
  let freq = Cap.run state io in
  let c = Condensed.of_frequent ~force:true freq in
  let back = Condensed.to_frequent c in
  if not (frequent_identical freq back) then
    QCheck2.Test.fail_reportf "constrained round-trip mismatch: [%s] vs [%s]"
      (frequent_str freq) (frequent_str back);
  let max_str = entries_str (Frequent.maximal freq) in
  let cond_max_str = entries_str (Condensed.maximal c) in
  if max_str <> cond_max_str then
    QCheck2.Test.fail_reportf "maximal mismatch: [%s] vs [%s]" max_str
      cond_max_str;
  entries_str (Condensed.decode_maximal (Condensed.encode_maximal c))
  = max_str

(* ------------------------------------------------------------------ *)
(* the definitional reference for closed / maximal / of_frequent *)

(* a set is closed iff no single-item extension within L1 has its support,
   maximal iff no such extension is in the collection at all *)
let ref_probe absorbs freq =
  let l1 = Frequent.l1_items freq in
  List.filter
    (fun (e : Frequent.entry) ->
      not
        (Itemset.exists
           (fun i ->
             (not (Itemset.mem i e.set))
             && absorbs e (Frequent.support freq (Itemset.add i e.set)))
           l1))
    (Frequent.to_list freq)

let ref_closed = ref_probe (fun e sup -> sup = Some e.Frequent.support)
let ref_maximal = ref_probe (fun _ sup -> sup <> None)

(* Condensed's losslessness test, entry by entry *)
let ref_condensable freq =
  let ml = Frequent.max_level freq in
  ml <= 20
  && List.for_all
       (fun k ->
         let lvl = Frequent.level freq k in
         let ok = ref true in
         Array.iteri
           (fun i (e : Frequent.entry) ->
             if i > 0 && Itemset.compare lvl.(i - 1).Frequent.set e.set >= 0
             then ok := false;
             if k >= 2 then
               Itemset.iter_delete_one e.set (fun d ->
                   match Frequent.support freq d with
                   | Some sup when sup >= e.support -> ()
                   | Some _ | None -> ok := false))
           lvl;
         !ok)
       (List.init ml (fun k -> k + 1))

(* what [of_frequent ~force] must report: condensed iff non-empty and
   condensable, storing the reference closed sets by cardinality *)
let ref_of_frequent ~force freq =
  if Frequent.n_sets freq = 0 || not (ref_condensable freq) then None
  else begin
    let closed = ref_closed freq in
    let stored =
      List.fold_left (fun acc e -> acc + Condensed.entry_weight e) 160 closed
    in
    if force || stored < Condensed.frequent_weight freq then
      Some
        (List.stable_sort
           (fun (a : Frequent.entry) b ->
             Int.compare (Itemset.cardinal a.set) (Itemset.cardinal b.set))
           closed)
    else None
  end

let check_against_reference freq =
  let same what want got =
    if want <> got then
      QCheck2.Test.fail_reportf "%s: reference [%s], got [%s] on [%s]" what want
        got (frequent_str freq)
  in
  same "closed" (entries_str (ref_closed freq)) (entries_str (Frequent.closed freq));
  same "maximal"
    (entries_str (ref_maximal freq))
    (entries_str (Frequent.maximal freq));
  List.iter
    (fun force ->
      let c = Condensed.of_frequent ~force freq in
      let what = Printf.sprintf "of_frequent ~force:%b" force in
      match ref_of_frequent ~force freq with
      | None ->
          if Condensed.is_condensed c then
            QCheck2.Test.fail_reportf "%s condensed what the reference keeps raw"
              what
      | Some buckets ->
          if not (Condensed.is_condensed c) then
            QCheck2.Test.fail_reportf "%s kept raw what the reference condenses"
              what;
          same (what ^ " n_closed")
            (string_of_int (List.length buckets))
            (string_of_int (Condensed.n_closed c));
          same (what ^ " buckets") (entries_str buckets)
            (entries_str (Condensed.closed_entries c)))
    [ true; false ];
  true

let prop_reference_apriori (n, db, minsup, kernel_i, domains) =
  let kernel = snd (List.nth kernels kernel_i) in
  check_against_reference (mine_kernel db n ~minsup ~kernel ~domains)

let prop_reference_cap (n, db, minsup, cs) =
  let info = Helpers.small_info n in
  let state = Cap.create db info ~minsup (Bundle.compile ~nonneg:true info cs) in
  check_against_reference (Cap.run state (Io_stats.create ()))

(* FUP promotions of constrained sides, as live maintenance makes them:
   the old collection is CAP output, the delta seeds from everything *)
let gen_promoted =
  QCheck2.Gen.(
    let* n = Helpers.gen_universe_size in
    let* txs = list_size (int_range 20 60) (Helpers.gen_tx n) in
    let* cut_pct = int_range 20 80 in
    let* old_minsup = int_range 1 6 in
    let* slack = int_range 0 3 in
    let* cs = list_size (int_range 0 2) Helpers.gen_one_var in
    return (n, txs, cut_pct, old_minsup, slack, cs))

let print_promoted (n, txs, cut_pct, old_minsup, slack, cs) =
  Printf.sprintf "n=%d cut=%d%% old_minsup=%d slack=%d cs=[%s] txs=%s" n cut_pct
    old_minsup slack
    (String.concat "; " (List.map One_var.to_string cs))
    (String.concat "|"
       (List.map (fun t -> String.concat "," (List.map string_of_int t)) txs))

let prop_reference_promoted (n, txs, cut_pct, old_minsup, slack, cs) =
  let cut = min (List.length txs - 1) (max 1 (List.length txs * cut_pct / 100)) in
  let old_db = Helpers.db_of_lists (List.filteri (fun i _ -> i < cut) txs) in
  let delta = Helpers.db_of_lists (List.filteri (fun i _ -> i >= cut) txs) in
  let info = Helpers.small_info n in
  let io = Io_stats.create () in
  let state =
    Cap.create old_db info ~minsup:old_minsup (Bundle.compile ~nonneg:true info cs)
  in
  let old_frequent = Cap.run state io in
  let out =
    Incremental.update_abs ~old_db ~old_frequent ~delta io ~old_minsup
      ~union_minsup:(old_minsup + slack) ~universe_size:n ()
  in
  check_against_reference out.Incremental.frequent

(* arbitrary collections, three ways: sets in any order with any supports
   (gaps and repeats anywhere); the downward closure of random sets, sorted,
   with random supports; and the same with anti-monotone supports
   1 + Σ_{i ∉ s} w_i, where a weight-0 item ties a set to its extension *)
let gen_arbitrary =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let* picks =
      list_size (int_range 0 25) (pair (int_range 1 ((1 lsl n) - 1)) (int_range 1 6))
    in
    let* sups = array_repeat (1 lsl n) (int_range 1 6) in
    let* w = array_repeat n (int_range 0 1) in
    let* mode = int_range 0 2 in
    let set m = Helpers.itemset_of_mask n m in
    let entries =
      if mode = 0 then
        List.map (fun (m, support) -> { Frequent.set = set m; support }) picks
      else
        let closure =
          List.filter
            (fun sub -> List.exists (fun (m, _) -> m land sub = sub) picks)
            (List.init ((1 lsl n) - 1) (fun m -> m + 1))
        in
        let support m =
          if mode = 1 then sups.(m)
          else
            1 + List.fold_left ( + ) 0
                  (List.init n (fun i -> if m land (1 lsl i) = 0 then w.(i) else 0))
        in
        List.sort
          (fun (a : Frequent.entry) b -> Itemset.compare a.set b.set)
          (List.map (fun m -> { Frequent.set = set m; support = support m }) closure)
    in
    return
      (List.init n (fun k ->
           Array.of_list
             (List.filter
                (fun (e : Frequent.entry) -> Itemset.cardinal e.set = k + 1)
                entries))))

let print_arbitrary levels = frequent_str (Frequent.of_levels levels)

let prop_reference_arbitrary levels =
  check_against_reference (Frequent.of_levels levels)

(* f = e ∪ {i} has e's support, but {i} is not in L1: the L1 probe never
   tries i, so e stays closed (and maximal) *)
let absorber_outside_l1 () =
  let freq =
    Frequent.of_levels [ [| entry [ 0 ] 5 |]; [| entry [ 0; 1 ] 5 |] ]
  in
  let want = "{i0}:5; {i0,i1}:5" in
  Alcotest.(check string) "reference" want (entries_str (ref_closed freq));
  Alcotest.(check string) "closed" want (entries_str (Frequent.closed freq));
  Alcotest.(check string) "maximal" want (entries_str (Frequent.maximal freq))

(* {0,1,2} lacks {0,2} and {1,2}: only {0,1} sits one level under it, so
   only {0,1} is absorbed; {2} has no extension in the collection, so it
   stays closed and maximal although {0,1,2} contains it *)
let missing_subset_invents_nothing () =
  let freq =
    Frequent.of_levels
      [
        [| entry [ 0 ] 6; entry [ 1 ] 5; entry [ 2 ] 4 |];
        [| entry [ 0; 1 ] 4 |];
        [| entry [ 0; 1; 2 ] 4 |];
      ]
  in
  Alcotest.(check string) "closed" "{i0}:6; {i1}:5; {i2}:4; {i0,i1,i2}:4"
    (entries_str (Frequent.closed freq));
  Alcotest.(check string) "maximal" "{i2}:4; {i0,i1,i2}:4"
    (entries_str (Frequent.maximal freq));
  Alcotest.(check string) "closed = reference" (entries_str (ref_closed freq))
    (entries_str (Frequent.closed freq));
  Alcotest.(check string) "maximal = reference" (entries_str (ref_maximal freq))
    (entries_str (Frequent.maximal freq));
  Alcotest.(check bool) "not condensable" false
    (Condensed.is_condensed (Condensed.of_frequent ~force:true freq))

let suite =
  [
    unit "correlated collection condenses to one closed set"
      condensed_shrinks_correlated;
    unit "closure gap falls back to raw" raw_fallback_on_closure_gap;
    unit "support violation falls back to raw" raw_fallback_on_support_violation;
    unit "raw weight matches the byte model" raw_weight_matches_model;
    unit "maximal wire format round-trips" wire_round_trip;
    Helpers.qtest ~count:120 "condensed: round-trip identity (kernels × domains)"
      gen_mined print_mined prop_round_trip;
    Helpers.qtest ~count:120 "condensed: identity under CAP constraints"
      gen_constrained print_constrained prop_constrained_round_trip;
    unit "an absorber outside L1 leaves its subset closed" absorber_outside_l1;
    unit "a missing subset invents no absorption" missing_subset_invents_nothing;
    Helpers.qtest ~count:120 "closed/maximal equal the L1 probe: Apriori"
      gen_mined print_mined prop_reference_apriori;
    Helpers.qtest ~count:120 "closed/maximal equal the L1 probe: CAP"
      gen_constrained print_constrained prop_reference_cap;
    Helpers.qtest ~count:120 "closed/maximal equal the L1 probe: FUP promotions"
      gen_promoted print_promoted prop_reference_promoted;
    Helpers.qtest ~count:200 "closed/maximal equal the L1 probe: arbitrary"
      gen_arbitrary print_arbitrary prop_reference_arbitrary;
    unit "maximal sets" (fun () ->
        let db =
          Helpers.db_of_lists [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 3 ]; [ 3 ]; [ 0; 3 ] ]
        in
        let io = Io_stats.create () in
        let f = (Apriori.mine db (Helpers.small_info 4) io ~minsup:2 ()).Apriori.frequent in
        let maximal = Frequent.maximal f in
        let sets = List.map (fun e -> Itemset.to_string e.Frequent.set) maximal in
        (* {0,1,2} and {3} are maximal; {0,3} appears once only *)
        Alcotest.(check (list string)) "maximal" [ "{i3}"; "{i0,i1,i2}" ] sets);
    unit "closed sets compress losslessly" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 0 ] ] in
        let io = Io_stats.create () in
        let f = (Apriori.mine db (Helpers.small_info 2) io ~minsup:2 ()).Apriori.frequent in
        (* {0} support 3 closed; {1} support 2 absorbed by {0,1} support 2 *)
        let closed = Frequent.closed f in
        let names = List.map (fun e -> Itemset.to_string e.Frequent.set) closed in
        Alcotest.(check (list string)) "closed" [ "{i0}"; "{i0,i1}" ] names);
    Helpers.qtest ~count:60 "every frequent set has a closed superset of equal support"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let f =
          (Apriori.mine db (Helpers.small_info n) io ~minsup:(max 1 (Tx_db.size db / 5)) ())
            .Apriori.frequent
        in
        let closed = Frequent.closed f in
        Frequent.fold
          (fun acc e ->
            acc
            && List.exists
                 (fun c ->
                   Itemset.subset e.Frequent.set c.Frequent.set
                   && c.Frequent.support = e.Frequent.support)
                 closed)
          true f);
    Helpers.qtest ~count:60 "every frequent set is contained in some maximal set"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let f =
          (Apriori.mine db (Helpers.small_info n) io ~minsup:(max 1 (Tx_db.size db / 5)) ())
            .Apriori.frequent
        in
        let maximal = Frequent.maximal f in
        Frequent.fold
          (fun acc e ->
            acc
            && List.exists (fun m -> Itemset.subset e.Frequent.set m.Frequent.set) maximal)
          true f);
  ]

open Cfq_txdb
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

let build db n =
  let io = Io_stats.create () in
  let v = Vertical.build db io ~universe_size:n in
  (v, io)

let suite =
  [
    (* FUP's old_scans / live.scans accounting counts the delta seeding as
       exactly one scan *)
    unit "build charges exactly one scan" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1 ]; [ 0; 2 ]; [ 1; 2 ] ] in
        let _, io = build db 3 in
        Alcotest.(check int) "one scan" 1 (Io_stats.scans io));
    Helpers.qtest ~count:100 "eclat mining equals apriori" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let v, _ = build db n in
        let eclat = Vertical.mine v ~minsup in
        let io = Io_stats.create () in
        let apriori = (Apriori.mine db (Helpers.small_info n) io ~minsup ()).Apriori.frequent in
        Frequent.n_sets eclat = Frequent.n_sets apriori
        && Frequent.fold
             (fun acc e -> acc && Frequent.support apriori e.Frequent.set = Some e.Frequent.support)
             true eclat);
  ]

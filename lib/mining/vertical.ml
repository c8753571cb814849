open Cfq_itembase
open Cfq_txdb

type t = { tid_lists : int array array }

let build db io ~universe_size =
  let bufs = Array.make universe_size [] in
  Tx_db.iter_scan db io (fun tx ->
      Itemset.iter
        (fun i ->
          (* an appended transaction may name an item past the universe;
             cold mining never considers such an item, so neither do we *)
          if i < universe_size then bufs.(i) <- tx.Transaction.tid :: bufs.(i))
        tx.Transaction.items);
  (* tids were consed in scan order: reverse to sort ascending *)
  { tid_lists = Array.map (fun l -> Array.of_list (List.rev l)) bufs }

let intersect a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let rec loop ia ib w =
    if ia >= na || ib >= nb then w
    else
      let x = a.(ia) and y = b.(ib) in
      if x < y then loop (ia + 1) ib w
      else if y < x then loop ia (ib + 1) w
      else begin
        out.(w) <- x;
        loop (ia + 1) (ib + 1) (w + 1)
      end
  in
  let n = loop 0 0 0 in
  if n = Array.length out then out else Array.sub out 0 n

let mine t ~minsup =
  let n = Array.length t.tid_lists in
  let by_level = Hashtbl.create 16 in
  let record set tids =
    let k = Itemset.cardinal set in
    let cur = Option.value ~default:[] (Hashtbl.find_opt by_level k) in
    Hashtbl.replace by_level k ({ Frequent.set; support = Array.length tids } :: cur)
  in
  (* depth-first: extend [set] (with tid list [tids]) by items > last *)
  let rec grow set tids last =
    for i = last + 1 to n - 1 do
      let next = intersect tids t.tid_lists.(i) in
      if Array.length next >= minsup then begin
        let set' = Itemset.add i set in
        record set' next;
        grow set' next i
      end
    done
  in
  for i = 0 to n - 1 do
    if Array.length t.tid_lists.(i) >= minsup then begin
      let set = Itemset.singleton i in
      record set t.tid_lists.(i);
      grow set t.tid_lists.(i) i
    end
  done;
  let max_k = Hashtbl.fold (fun k _ acc -> max k acc) by_level 0 in
  Frequent.of_levels
    (List.init max_k (fun i ->
         let entries =
           Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_level (i + 1)))
         in
         Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
         entries))

open Cfq_itembase

type entry = {
  set : Itemset.t;
  support : int;
}

type t = {
  levels : entry array array;  (* levels.(k-1) = size-k entries *)
  table : int Itemset.Hashtbl.t;
}

let build levels =
  let table = Itemset.Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun e -> Itemset.Hashtbl.replace table e.set e.support))
    levels;
  { levels; table }

let empty = build [||]

let of_levels ls =
  (* drop trailing empty levels *)
  let arr = Array.of_list ls in
  let last = ref (Array.length arr) in
  while !last > 0 && Array.length arr.(!last - 1) = 0 do
    decr last
  done;
  build (Array.sub arr 0 !last)

let max_level t = Array.length t.levels
let level t k = if k >= 1 && k <= Array.length t.levels then t.levels.(k - 1) else [||]
let n_sets t = Itemset.Hashtbl.length t.table
let support t s = Itemset.Hashtbl.find_opt t.table s
let mem t s = Itemset.Hashtbl.mem t.table s

let l1_items t =
  let l1 = level t 1 in
  Itemset.of_array
    (Array.map
       (fun e ->
         match Itemset.min_item e.set with
         | Some i -> i
         | None -> invalid_arg "Frequent.l1_items: empty set at level 1")
       l1)

let iter f t = Array.iter (Array.iter f) t.levels
let fold f acc t = Array.fold_left (Array.fold_left f) acc t.levels
let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

let filter_entries p t =
  (* trailing levels may empty out: rebuild through of_levels *)
  of_levels
    (Array.to_list
       (Array.map (fun lvl -> Array.of_seq (Seq.filter p (Array.to_seq lvl))) t.levels))

let filter p t = filter_entries (fun e -> p e.set) t

(* Closedness and maximality look one level up only: [e] is absorbed by, or
   extends to, some [e ∪ {i}] with [i ∈ L1].  Rather than probing every L1
   extension of every set (n·|L1| lookups), walk each set's delete-one
   subsets once (Σ|f| steps) and record, against each [f ∖ {i}] with
   [i ∈ L1], the support of [f].  [check], when given, sees each entry's
   level, the entry and the support of each of its delete-one subsets; a
   [false] stops the walk. *)
exception Stop

let extensions ?check t =
  let l1 = l1_items t in
  let ext = Itemset.Hashtbl.create (2 * n_sets t) in
  let n_entries = Array.fold_left (fun n l -> n + Array.length l) 0 t.levels in
  (* a set listed twice counts with its last support, as [support] has it *)
  let support_of e =
    if n_entries = n_sets t then e.support else Option.get (support t e.set)
  in
  Array.iteri
    (fun k1 lvl ->
      Array.iter
        (fun f ->
          let sf = support_of f in
          Itemset.iter_delete_each f.set (fun i d ->
              (match check with
              | Some ok when not (ok (k1 + 1) f (support t d)) -> raise Stop
              | _ -> ());
              if Itemset.mem i l1 then Itemset.Hashtbl.add ext d sf))
        lvl)
    t.levels;
  ext

let keep p t = List.rev (fold (fun acc e -> if p e then e :: acc else acc) [] t)

let closed_in ext t =
  keep (fun e -> not (List.mem e.support (Itemset.Hashtbl.find_all ext e.set))) t

let closed t = closed_in (extensions t) t

let closed_when check t =
  match extensions ~check t with
  | ext -> Some (closed_in ext t)
  | exception Stop -> None

let maximal t =
  let ext = extensions t in
  keep (fun e -> not (Itemset.Hashtbl.mem ext e.set)) t

open Cfq_itembase

(* Byte model shared with the service cache: approximate heap bytes of the
   boxed representation.  Must match what the cache charged historically so
   condense:false accounting is unchanged. *)
let itemset_weight s = 24 + (8 * Itemset.cardinal s)
let entry_weight (e : Frequent.entry) = 32 + itemset_weight e.Frequent.set
let frequent_weight freq = Frequent.fold (fun acc e -> acc + entry_weight e) 128 freq

type repr =
  | Closed of Frequent.entry array array
      (* per-cardinality buckets of the closed sets, lex-sorted within a
         bucket; bucket [k-1] holds cardinality-k entries (may be empty) *)
  | Raw of Frequent.t

type t = {
  repr : repr;
  n_sets : int;
  n_closed : int;
  max_level : int;
  raw_bytes : int;
  stored_bytes : int;
}

let is_condensed t = match t.repr with Closed _ -> true | Raw _ -> false
let n_sets t = t.n_sets
let n_closed t = t.n_closed
let max_level t = t.max_level
let raw_bytes t = t.raw_bytes
let bytes t = t.stored_bytes

let raw freq =
  let b = frequent_weight freq in
  let n = Frequent.n_sets freq in
  {
    repr = Raw freq;
    n_sets = n;
    n_closed = n;
    max_level = Frequent.max_level freq;
    raw_bytes = b;
    stored_bytes = b;
  }

(* Itemset.powerset refuses sets above this cardinality, and a closed set of
   more than 2^20 subsets would be hopeless to reconstruct anyway. *)
let max_closed_card = 20

(* The round-trip is the identity iff the collection is downward closed with
   anti-monotone supports and each level is strictly lex-sorted:
   - downward closure makes "subsets of closed sets" enumerate exactly the
     member sets (every member sits under a maximal member, which is closed);
   - anti-monotone supports make "max over closed supersets" exact: the
     absorption chain s -> s+{i} (equal support) ends at a closed superset of
     equal support, and no closed superset can exceed it;
   - strict lex order per level lets reconstruction reproduce the original
     array order byte for byte.
   CAP output and FUP promotions satisfy all three; collections filtered by a
   non-anti-monotone succinct constraint (e.g. Dom ⊇ V) fail the closure
   check and stay raw.  The closure check needs each set's delete-one
   subsets, which is the walk [Frequent.closed_when] makes to close the
   collection, so it rides along: [None] when not condensable. *)
let lex_sorted freq =
  let sorted lvl =
    let ok = ref true in
    for i = 1 to Array.length lvl - 1 do
      if Itemset.compare lvl.(i - 1).Frequent.set lvl.(i).Frequent.set >= 0
      then ok := false
    done;
    !ok
  in
  List.for_all
    (fun k -> sorted (Frequent.level freq k))
    (List.init (Frequent.max_level freq) (fun k -> k + 1))

let condensable_closed freq =
  if Frequent.max_level freq > max_closed_card || not (lex_sorted freq) then
    None
  else
    Frequent.closed_when
      (fun k (e : Frequent.entry) sub_support ->
        k < 2
        || match sub_support with Some sup -> sup >= e.support | None -> false)
      freq

let closed_buckets freq closed =
  let buckets = Array.make (max (Frequent.max_level freq) 1) [] in
  (* closed entries come in level order, lex within a level, so rev-consing
     per bucket keeps each bucket lex-sorted. *)
  List.iter
    (fun (e : Frequent.entry) ->
      let k = Itemset.cardinal e.set in
      buckets.(k - 1) <- e :: buckets.(k - 1))
    closed;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let of_frequent ?(force = false) freq =
  let r = raw freq in
  match if r.n_sets = 0 then None else condensable_closed freq with
  | None -> r
  | Some closed ->
      let buckets = closed_buckets freq closed in
      let n_closed =
        Array.fold_left (fun acc l -> acc + Array.length l) 0 buckets
      in
      let stored =
        Array.fold_left
          (Array.fold_left (fun acc e -> acc + entry_weight e))
          160 buckets
      in
      if force || stored < r.raw_bytes then
        {
          repr = Closed buckets;
          n_sets = r.n_sets;
          n_closed;
          max_level = r.max_level;
          raw_bytes = r.raw_bytes;
          stored_bytes = stored;
        }
      else r

let to_frequent t =
  match t.repr with
  | Raw f -> f
  | Closed buckets ->
      let tbl = Itemset.Hashtbl.create (2 * t.n_sets) in
      Array.iter
        (Array.iter (fun (e : Frequent.entry) ->
             Itemset.powerset e.set (fun s ->
                 if Itemset.cardinal s > 0 then
                   match Itemset.Hashtbl.find_opt tbl s with
                   | Some sup when sup >= e.support -> ()
                   | _ -> Itemset.Hashtbl.replace tbl s e.support)))
        buckets;
      let levels = Array.make t.max_level [] in
      Itemset.Hashtbl.iter
        (fun s sup ->
          let k = Itemset.cardinal s in
          levels.(k - 1) <- { Frequent.set = s; support = sup } :: levels.(k - 1))
        tbl;
      Frequent.of_levels
        (Array.to_list
           (Array.map
              (fun l ->
                let a = Array.of_list l in
                Array.sort
                  (fun (a : Frequent.entry) b -> Itemset.compare a.set b.set)
                  a;
                a)
              levels))

let support t s =
  match t.repr with
  | Raw f -> Frequent.support f s
  | Closed buckets ->
      let k = Itemset.cardinal s in
      if k = 0 then None
      else begin
        let best = ref None in
        for l = k to t.max_level do
          Array.iter
            (fun (e : Frequent.entry) ->
              if Itemset.subset s e.set then
                match !best with
                | Some b when b >= e.support -> ()
                | _ -> best := Some e.support)
            buckets.(l - 1)
        done;
        !best
      end

let mem t s =
  match t.repr with Raw f -> Frequent.mem f s | Closed _ -> support t s <> None

let closed_entries t =
  match t.repr with
  | Raw f -> Frequent.closed f
  | Closed buckets ->
      List.concat_map Array.to_list (Array.to_list buckets)

let maximal t =
  match t.repr with
  | Raw f -> Frequent.maximal f
  | Closed _ ->
      (* maximal in the collection = closed with no closed strict superset *)
      let all = closed_entries t in
      List.filter
        (fun (e : Frequent.entry) ->
          not
            (List.exists
               (fun (e' : Frequent.entry) ->
                 Itemset.cardinal e'.set > Itemset.cardinal e.set
                 && Itemset.subset e.set e'.set)
               all))
        all

(* Wire format: "CM1" magic, then varint count, then per maximal entry its
   varint support, cardinality and delta-encoded item gaps (items strictly
   ascending, so each gap-minus-one fits a varint). *)

let add_varint buf n =
  let n = ref n in
  let stop = ref false in
  while not !stop do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      stop := true
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let read_varint s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len then invalid_arg "Condensed.decode_maximal: truncated";
    let c = Char.code s.[pos] in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

let magic = "CM1"

let encode_maximal t =
  let entries = maximal t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  add_varint buf (List.length entries);
  List.iter
    (fun (e : Frequent.entry) ->
      add_varint buf e.support;
      add_varint buf (Itemset.cardinal e.set);
      let prev = ref (-1) in
      Itemset.iter
        (fun i ->
          add_varint buf (i - !prev - 1);
          prev := i)
        e.set)
    entries;
  Buffer.contents buf

let decode_maximal s =
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    invalid_arg "Condensed.decode_maximal: bad magic";
  let n, pos = read_varint s mlen in
  let pos = ref pos in
  let out = ref [] in
  for _ = 1 to n do
    let support, p = read_varint s !pos in
    let card, p = read_varint s p in
    if card = 0 then invalid_arg "Condensed.decode_maximal: empty set";
    let items = Array.make card 0 in
    let prev = ref (-1) in
    let p = ref p in
    for j = 0 to card - 1 do
      let gap, p' = read_varint s !p in
      let item = !prev + 1 + gap in
      items.(j) <- item;
      prev := item;
      p := p'
    done;
    pos := !p;
    out := { Frequent.set = Itemset.of_array items; support } :: !out
  done;
  if !pos <> String.length s then
    invalid_arg "Condensed.decode_maximal: trailing bytes";
  List.rev !out

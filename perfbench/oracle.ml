(* The answer oracle: a cold [Exec.run ~strategy:Cap_one_var] on an
   in-memory twin of the transactions the service answers over.

   Answers are compared by an order-independent digest of their pairs —
   the count plus two independent 63-bit sums of per-pair hashes over
   (S set, S support, T set, T support) — so a service answer can be
   digested right after it returns and dropped, instead of being held until
   the oracle runs. *)

open Cfq_itembase
open Cfq_mining
open Cfq_core

type digest = { n : int; h1 : int; h2 : int }

let empty = { n = 0; h1 = 0; h2 = 0 }

(* splitmix-style finaliser over OCaml's 63-bit ints *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x5851f42d4c957f2d in
  let x = (x lxor (x lsr 29)) * 0x14057b7ef767814f in
  x lxor (x lsr 32)

let hash_entry seed (e : Frequent.entry) =
  let h = Itemset.fold (fun acc i -> mix (acc + i + 1)) (mix seed) e.Frequent.set in
  mix (h + (e.Frequent.support * 0x9e3779b9))

let add d ((s : Frequent.entry), (t : Frequent.entry)) =
  let hs = hash_entry 17 s and ht = hash_entry 29 t in
  {
    n = d.n + 1;
    h1 = d.h1 + mix (hs + (3 * ht));
    h2 = d.h2 + mix ((hs * 5) lxor ht);
  }

let of_pairs pairs = List.fold_left add empty pairs
let equal a b = a.n = b.n && a.h1 = b.h1 && a.h2 = b.h2
let to_string d = Printf.sprintf "%d pairs #%x/%x" d.n (d.h1 land 0xffffff) (d.h2 land 0xffffff)

(* [expected] digests of cold runs, memoised per (epoch, query text): the
   same text at the same epoch has one answer.  [prepare] computes the
   missing ones on [domains] domains, one query per domain at a time —
   independent queries parallelise better than one query's passes. *)
type t = {
  twins : (int, Exec.ctx) Hashtbl.t;  (** epoch -> in-memory twin *)
  memo : (int * string, digest) Hashtbl.t;
  domains : int;
  mutable cold_runs : int;
}

let create ?(domains = 1) () =
  { twins = Hashtbl.create 8; memo = Hashtbl.create 64; domains = max 1 domains; cold_runs = 0 }

(* the twin of epoch [epoch]: the transactions the service answers over
   after that epoch's seal *)
let add_epoch t ~epoch sets info =
  Hashtbl.replace t.twins epoch (Exec.context (Cfq_txdb.Tx_db.create sets) info)

let drop_epoch t ~epoch = Hashtbl.remove t.twins epoch
let cold_runs t = t.cold_runs

let cold ctx text =
  let r = Exec.run ~strategy:Plan.Cap_one_var ~collect_pairs:true ctx (Parser.parse text) in
  of_pairs r.Exec.pairs

let prepare t ~epoch texts =
  let ctx =
    match Hashtbl.find_opt t.twins epoch with
    | Some ctx -> ctx
    | None -> invalid_arg (Printf.sprintf "Oracle: no twin for epoch %d" epoch)
  in
  let todo =
    Array.of_list
      (List.sort_uniq compare
         (List.filter (fun text -> not (Hashtbl.mem t.memo (epoch, text))) texts))
  in
  let results = Array.make (Array.length todo) empty in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length todo then begin
      results.(i) <- cold ctx todo.(i);
      work ()
    end
  in
  let helpers = List.init (min (t.domains - 1) (Array.length todo)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.iteri (fun i text -> Hashtbl.replace t.memo (epoch, text) results.(i)) todo;
  t.cold_runs <- t.cold_runs + Array.length todo

let expected t ~epoch text =
  match Hashtbl.find_opt t.memo (epoch, text) with
  | Some d -> d
  | None ->
      prepare t ~epoch [ text ];
      Hashtbl.find t.memo (epoch, text)

(* [check t ~epoch text got] is [None] when [got] matches the cold answer,
   otherwise a description of the mismatch *)
let check t ~epoch text got =
  let want = expected t ~epoch text in
  if equal want got then None
  else
    Some
      (Printf.sprintf "epoch %d: %s: service %s, oracle %s" epoch text (to_string got)
         (to_string want))

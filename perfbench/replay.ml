(* Replay of a query's miss path through the public functions the service
   itself calls, so the traced run can attribute time and counts to layers
   that [Service.run] hides: [Rewrite.simplify], [Fingerprint.query_key],
   the CAP loop ([Cap.next_candidates] / [Counting.count_level] /
   [Cap.absorb]), [Condensed.of_frequent] / [to_frequent], the 1-var
   filter ([One_var.eval]) and [Pairs.form].

   To pick the same cached collection the service picks for a side, the
   replay keeps a shadow of the service's side cache: an [Lru] with the
   same keys, weights and budget (the service gives its sides 3/4 of the
   cache budget), bumped and filled in the same order, and the same choice
   rule (fewest sets among the entries that answer the side).  The
   replay's counts for each query must equal the service's; the caller
   checks that. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_constr
open Cfq_core
module Service = Cfq_service.Service
module Fingerprint = Cfq_service.Fingerprint
module Entail = Cfq_service.Entail
module Lru = Cfq_service.Lru

type spec = {
  info : Item_info.t;
  minsup : int;
  max_level : int option;
  constraints : One_var.t list;
}

type entry = {
  key : string;
  e_info : Item_info.t;
  epoch : int;
  info_id : int;
  e_minsup : int;
  e_max_level : int option;
  e_constraints : One_var.t list;
  cond : Condensed.t;
  weight : int;
}

(* layer counters the replay accumulates *)
type counts = {
  mutable candidates : int;
  mutable frequent : int;
  mutable pass_trie : int;
  mutable pass_direct2 : int;
  mutable pass_vertical : int;
  mutable one_var_checks : int;
  mutable pair_checks : int;
  mutable n_pairs : int;
  mutable tuples_read : int;
  mutable unreplayed : int;
}

type t = {
  tracer : Tracer.t;
  par : Counting.par;
  kernel : Counting.kernel;
  calibration : Counting.calibration;
  condense : bool;
  entries : entry Lru.t;
  counts : counts;
}

let create ~tracer ~par (config : Service.config) =
  let budget = max 0 config.Service.cache_budget in
  {
    tracer;
    par;
    kernel = config.Service.kernel;
    calibration = Counting.create_calibration ();
    condense = config.Service.condense;
    entries = Lru.create ~budget:(budget - (budget / 4));
    counts =
      {
        candidates = 0;
        frequent = 0;
        pass_trie = 0;
        pass_direct2 = 0;
        pass_vertical = 0;
        one_var_checks = 0;
        pair_checks = 0;
        n_pairs = 0;
        tuples_read = 0;
        unreplayed = 0;
      };
  }

let span r name f = Tracer.with_span r.tracer name f

let spec_of (ctx : Exec.ctx) (q : Query.t) side =
  let info, minsup, constraints =
    match side with
    | `S -> (ctx.Exec.s_info, q.Query.s_minsup, q.Query.s_constraints)
    | `T -> (ctx.Exec.t_info, q.Query.t_minsup, q.Query.t_constraints)
  in
  {
    info;
    minsup = Tx_db.absolute_support ctx.Exec.db minsup;
    max_level = q.Query.max_level;
    constraints;
  }

let answers ~epoch e spec =
  e.epoch = epoch
  && e.info_id = Fingerprint.info_id spec.info
  && e.e_minsup <= spec.minsup
  && (match (e.e_max_level, spec.max_level) with
     | None, _ -> true
     | Some cached, Some requested -> cached >= requested
     | Some _, None -> false)
  && Entail.subsumes ~cached:e.e_constraints ~requested:spec.constraints

(* the service's rule: fewest represented sets, most recent on a tie *)
let covering r ~epoch spec =
  Lru.fold
    (fun best ~key:_ ~value:e ->
      if not (answers ~epoch e spec) then best
      else
        match best with
        | Some b when Condensed.n_sets b.cond <= Condensed.n_sets e.cond -> best
        | _ -> Some e)
    None r.entries

let touch r e = ignore (Lru.find r.entries e.key : entry option)
let insert r e = ignore (Lru.insert r.entries e.key ~weight:e.weight e : bool)

(* the service's filter down to the side's valid sets, counting every 1-var
   evaluation *)
let filter_valid spec freq checks =
  let out = ref [] in
  Frequent.iter
    (fun e ->
      let ok =
        e.Frequent.support >= spec.minsup
        && (match spec.max_level with
           | Some cap -> Itemset.cardinal e.Frequent.set <= cap
           | None -> true)
        && List.for_all
             (fun c ->
               incr checks;
               One_var.eval spec.info c e.Frequent.set)
             spec.constraints
      in
      if ok then out := e :: !out)
    freq;
  Array.of_list (List.rev !out)

let mine r (ctx : Exec.ctx) spec io =
  let bundle = Bundle.compile ~nonneg:ctx.Exec.nonneg spec.info spec.constraints in
  let state =
    Cap.create ctx.Exec.db spec.info ?max_level:spec.max_level ~minsup:spec.minsup bundle
  in
  let session =
    if r.kernel = Counting.Trie then None
    else
      let plan = { (Counting.plan_of_kernel r.kernel) with Counting.calibrate = false } in
      Some (Counting.create_session ~plan ~calibration:r.calibration ())
  in
  let c = r.counts in
  let passes = ref 0 in
  let rec loop () =
    match span r "mining.candgen" (fun () -> Cap.next_candidates state) with
    | None -> ()
    | Some cands ->
        c.candidates <- c.candidates + Array.length cands;
        incr passes;
        let counts =
          span r "mining.count" (fun () ->
              Counting.count_level ~par:r.par ?session ctx.Exec.db io (Cap.counters state)
                cands)
        in
        let kernel =
          match session with Some s -> Counting.last_kernel s | None -> "trie"
        in
        let level = span r "mining.absorb" (fun () -> Cap.absorb ~kernel state counts) in
        c.frequent <- c.frequent + Array.length level;
        loop ()
  in
  loop ();
  (match session with
  | None -> c.pass_trie <- c.pass_trie + !passes
  | Some s ->
      let pc = Counting.pass_counts s in
      c.pass_trie <- c.pass_trie + pc.Counting.trie_passes;
      c.pass_direct2 <- c.pass_direct2 + pc.Counting.direct2_passes;
      c.pass_vertical <- c.pass_vertical + pc.Counting.vertical_passes);
  (Cap.result state, Cap.counters state)

let side r ~ctx ~epoch spec io counters checks =
  match covering r ~epoch spec with
  | Some e ->
      touch r e;
      let freq = span r "condensed.to_frequent" (fun () -> Condensed.to_frequent e.cond) in
      span r "constr.filter" (fun () -> filter_valid spec freq checks)
  | None ->
      let freq, side_counters = span r "mining" (fun () -> mine r ctx spec io) in
      Counters.merge counters side_counters;
      let cond =
        span r "condensed.of_frequent" (fun () ->
            if r.condense then Condensed.of_frequent freq else Condensed.raw freq)
      in
      insert r
        {
          key =
            Fingerprint.side_key ~info:spec.info ~minsup_abs:spec.minsup
              ~max_level:spec.max_level spec.constraints;
          e_info = spec.info;
          epoch;
          info_id = Fingerprint.info_id spec.info;
          e_minsup = spec.minsup;
          e_max_level = spec.max_level;
          e_constraints = spec.constraints;
          cond;
          weight = Condensed.bytes cond;
        };
      span r "constr.filter" (fun () -> filter_valid spec freq checks)

(* the counts a query's answer reports *)
type answer_counts = {
  support_counted : int;
  constraint_checks : int;
  scans : int;
  pages_read : int;
}

let of_answer (a : Service.answer) =
  {
    support_counted = a.Service.support_counted;
    constraint_checks = a.Service.constraint_checks;
    scans = a.Service.scans;
    pages_read = a.Service.pages_read;
  }

let zero = { support_counted = 0; constraint_checks = 0; scans = 0; pages_read = 0 }

(* [query r ~ctx ~epoch q a] replays [q], which the service answered with
   [a] at [epoch] over [ctx], and returns the counts the replay paid.  A
   shadow that diverged from the service's cache shows as counts that
   differ from [a]'s.  [None] for a degraded answer, whose path the
   service does not expose. *)
let query r ~ctx ~epoch q (a : Service.answer) =
  let rw = span r "optimizer" (fun () -> Rewrite.simplify q) in
  let q = rw.Rewrite.query in
  let (_ : string) = span r "service.key" (fun () -> Fingerprint.query_key ctx q) in
  match a.Service.served_from with
  | Service.Answer_cache -> Some zero
  | Service.Degraded ->
      r.counts.unreplayed <- r.counts.unreplayed + 1;
      None
  | Service.Cold | Service.Subsumed ->
      if rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then Some zero
      else begin
        let io = Io_stats.create () and counters = Counters.create () and checks = ref 0 in
        let valid_s = side r ~ctx ~epoch (spec_of ctx q `S) io counters checks in
        let valid_t = side r ~ctx ~epoch (spec_of ctx q `T) io counters checks in
        let collected = ref [] in
        let ps =
          span r "pairs" (fun () ->
              Pairs.form ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~valid_s ~valid_t
                ~two_var:q.Query.two_var
                ~on_pair:(fun es et -> collected := (es, et) :: !collected)
                ())
        in
        let c = r.counts in
        c.one_var_checks <- c.one_var_checks + !checks;
        c.pair_checks <- c.pair_checks + ps.Pairs.checks;
        c.n_pairs <- c.n_pairs + ps.Pairs.n_pairs;
        c.tuples_read <- c.tuples_read + Io_stats.tuples_read io;
        Some
          {
            support_counted = Counters.support_counted counters;
            constraint_checks = !checks + ps.Pairs.checks;
            scans = Io_stats.scans io;
            pages_read = Io_stats.pages_read io;
          }
      end

(* counts one seal's maintenance reports *)
type seal_counts = { recounted : int; old_scans : int; seal_scans : int; seal_pages : int }

let of_live (lv : Service.live) =
  {
    recounted = lv.Service.lv_recounted;
    old_scans = lv.Service.lv_old_scans;
    seal_scans = lv.Service.lv_scans;
    seal_pages = lv.Service.lv_pages_read;
  }

(* [seal r ~old_ctx ~new_ctx ~new_epoch ~delta io answered] replays the
   maintenance pass [Service.seal_live] runs after sealing [delta]: every
   cached side, least recent first, is rebuilt, promoted by FUP
   ([Maintain.promote]), re-closed and re-keyed at its new threshold; then
   every cached answer (the simplified queries in [answered]) is
   re-derived from the promoted collections.  [io] already holds the
   delta extraction's charge.  The shadow ends at [new_epoch], as the
   service's cache does. *)
let seal r ~(old_ctx : Exec.ctx) ~(new_ctx : Exec.ctx) ~new_epoch ~delta io answered =
  let universe =
    max
      (Item_info.universe_size old_ctx.Exec.s_info)
      (Item_info.universe_size old_ctx.Exec.t_info)
  in
  let recounted = ref 0 and old_scans = ref 0 in
  List.iter
    (fun e ->
      if e.epoch < new_epoch then begin
        let f = span r "condensed.to_frequent" (fun () -> Condensed.to_frequent e.cond) in
        Lru.remove r.entries e.key;
        match
          span r "live.promote" (fun () ->
              Cfq_live.Maintain.promote ~old_db:old_ctx.Exec.db ~delta io
                ~old_minsup:e.e_minsup ~max_level:e.e_max_level ~universe_size:universe f)
        with
        | exception _ -> ()
        | f', minsup', st ->
            recounted := !recounted + st.Cfq_live.Maintain.recounted;
            old_scans := !old_scans + st.Cfq_live.Maintain.old_scans;
            let cond =
              span r "condensed.of_frequent" (fun () ->
                  if r.condense then Condensed.of_frequent f' else Condensed.raw f')
            in
            insert r
              {
                e with
                key =
                  Fingerprint.side_key ~info:e.e_info ~minsup_abs:minsup'
                    ~max_level:e.e_max_level e.e_constraints;
                epoch = new_epoch;
                e_minsup = minsup';
                cond;
                weight = Condensed.bytes cond;
              }
      end)
    (Lru.fold (fun acc ~key:_ ~value -> value :: acc) [] r.entries);
  List.iter
    (fun q ->
      let spec_s = spec_of new_ctx q `S and spec_t = spec_of new_ctx q `T in
      match (covering r ~epoch:new_epoch spec_s, covering r ~epoch:new_epoch spec_t) with
      | Some es, Some et ->
          span r "live.rederive" (fun () ->
              let checks = ref 0 in
              let valid spec e =
                let f = span r "condensed.to_frequent" (fun () -> Condensed.to_frequent e.cond) in
                filter_valid spec f checks
              in
              let valid_s = valid spec_s es in
              let valid_t = valid spec_t et in
              ignore
                (Pairs.form ~s_info:new_ctx.Exec.s_info ~t_info:new_ctx.Exec.t_info ~valid_s
                   ~valid_t ~two_var:q.Query.two_var ~on_pair:(fun _ _ -> ()) ()
                  : Pairs.stats))
      | _ -> ())
    answered;
  Lru.fold (fun acc ~key ~value -> if value.epoch < new_epoch then key :: acc else acc) [] r.entries
  |> List.iter (Lru.remove r.entries);
  {
    recounted = !recounted;
    old_scans = !old_scans;
    seal_scans = Io_stats.scans io;
    seal_pages = Io_stats.pages_read io;
  }

open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining
open Cfq_core
open Cfq_exec_pool

let log_src = Logs.Src.create "cfq.service" ~doc:"CFQ query service"

module Log = (val Logs.src_log log_src)

type config = {
  domains : int;
  mine_domains : int;
  queue_capacity : int;
  cache_budget : int;
  default_deadline : float option;
  retries : int;
  backoff_base : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  degrade : bool;
  jitter_seed : int64;
  kernel : Counting.kernel;
  calibrate : bool;
  condense : bool;
}

let default_config =
  {
    domains = 2;
    mine_domains = 0;
    queue_capacity = 1024;
    cache_budget = 64 * 1024 * 1024;
    default_deadline = None;
    retries = 2;
    backoff_base = 0.002;
    breaker_threshold = 5;
    breaker_cooldown = 8;
    degrade = true;
    jitter_seed = 0x0DDB1A5EL;
    kernel = Counting.Trie;
    calibrate = true;
    condense = true;
  }

type served_from =
  | Cold
  | Answer_cache
  | Subsumed
  | Degraded

let served_from_name = function
  | Cold -> "cold"
  | Answer_cache -> "answer-cache"
  | Subsumed -> "subsumed"
  | Degraded -> "degraded"

type answer = {
  pairs : (Frequent.entry * Frequent.entry) list;
  n_pairs : int;
  served_from : served_from;
  support_counted : int;
  constraint_checks : int;
  scans : int;
  pages_read : int;
  latency_seconds : float;
  notes : string list;
}

type error =
  | Rejected
  | Overloaded
  | Deadline_exceeded
  | Fault of Cfq_error.t
  | Failed of string

let error_to_string = function
  | Rejected -> "rejected: admission queue full"
  | Overloaded -> "overloaded: circuit breaker open"
  | Deadline_exceeded -> "deadline exceeded"
  | Fault e -> "fault: " ^ Cfq_error.to_string e
  | Failed msg -> "failed: " ^ msg

(* what one side of a query asks for *)
type side_spec = {
  sp_info : Item_info.t;  (* shared, immutable; needed to re-key on promotion *)
  sp_minsup : int;  (* absolute support *)
  sp_max_level : int option;
  sp_constraints : One_var.t list;  (* normalised 1-var conjunction *)
}

(* Cache payloads; both kinds live in [Cache.entry]s stamped with their
   epoch and charged their memoized weight.  A side is the frequent
   collection mined for [sd_spec], stored closed-set condensed when the
   condense knob is on and the round-trip is provably lossless.  An
   answer's pair list — a near cross-product of the two sides — is stored,
   with condensation on, as deduplicated per-side entry arrays plus two
   indices per pair.  Lookups rebuild the raw form on demand. *)
type side = {
  sd_spec : side_spec;
  sd_cond : Condensed.t;
}

type packed_pairs = {
  pk_s : Frequent.entry array;
  pk_t : Frequent.entry array;
  pk_idx : int array;  (* pair i is (pk_s.(idx.(2i)), pk_t.(idx.(2i+1))) *)
}

type stored_pairs =
  | Raw_pairs of (Frequent.entry * Frequent.entry) list
  | Packed_pairs of packed_pairs

type cached_answer = {
  ca_query : Query.t;  (* simplified query: covering tests and re-derivation *)
  ca_answer : answer;  (* template with [pairs = []]; pairs live in ca_pairs *)
  ca_pairs : stored_pairs;
}

(* Circuit breaker, one instance for the service and one per shard:
   [Open n] sheds the next [n] admissions, then half-opens.  The cooldown
   is admission-counted, not wall-clock, so breaker behaviour is
   deterministic under a deterministic submission order.  Guarded by the
   service lock. *)
type breaker_state =
  | Closed
  | Open of int
  | Half_open

type breaker = {
  mutable br_state : breaker_state;
  mutable br_consec : int;  (* consecutive failures *)
  mutable br_trips : int;
}

(* per-shard health of a sharded backend: failures whose error pages fall
   in a shard's range charge that shard's breaker, so one faulty shard
   degrades its own admissions to cache-only serving while the others keep
   mining.  All fields are guarded by the service lock. *)
type shard_health = {
  sh_breaker : breaker;
  mutable sh_admissions : int;
  mutable sh_failures : int;
  mutable sh_shed : int;
}

type t = {
  mutable service_ctx : Exec.ctx;
      (* swapped (under [lock]) by [seal_live]: queries capture it together
         with [epoch] at admission and run against that snapshot — a store
         handle obtained before a seal stays readable *)
  mutable epoch : int;
      (* monotone database generation, minted by [seal_live]; every cache
         entry is stamped with the epoch its supports are exact for, and
         [Cache] checks the stamp on every lookup and insert, so a seal can
         never serve stale supports *)
  mutable live_source : Cfq_live.Source.t option;
  service_config : config;
  pool : Pool.t;
  mine_par : Counting.par;
      (* intra-query counting parallelism: helpers are borrowed from [pool],
         never spawned, so the service as a whole never oversubscribes *)
  calibration : Counting.calibration;
      (* one measured-cost record for the whole service: the first cold
         mines calibrate the Auto planner for every later query (updates
         are mutex-guarded inside the record) *)
  lock : Mutex.t;
  answers : cached_answer Cache.t;
  sides : side Cache.t;
  service_metrics : Metrics.t;
  breaker : breaker;
  mutable consec_rejections : int;
  shard_health : shard_health array;  (* one per shard; [||] unsharded *)
}

type ticket =
  | Pooled of (answer, error) result Pool.promise
  | Immediate of (answer, error) result

let new_breaker () = { br_state = Closed; br_consec = 0; br_trips = 0 }

let create ?(config = default_config) ctx =
  (* answers are small relative to collections: 1/4 vs 3/4 of the budget *)
  let budget = max 0 config.cache_budget in
  let pool = Pool.create ~domains:config.domains ~queue_capacity:config.queue_capacity () in
  let mine_domains =
    if config.mine_domains = 0 then config.domains else max 1 config.mine_domains
  in
  {
    service_ctx = ctx;
    epoch = 0;
    live_source = None;
    service_config = config;
    pool;
    mine_par = Counting.par ~pool mine_domains;
    calibration = Counting.create_calibration ();
    lock = Mutex.create ();
    answers = Lru.create ~budget:(budget / 4);
    sides = Lru.create ~budget:(budget - (budget / 4));
    service_metrics = Metrics.create ();
    breaker = new_breaker ();
    consec_rejections = 0;
    shard_health =
      (match Tx_db.shards ctx.Exec.db with
      | Some subs ->
          Array.init (Array.length subs) (fun _ ->
              { sh_breaker = new_breaker (); sh_admissions = 0; sh_failures = 0; sh_shed = 0 })
      | None -> [||]);
  }

let ctx t = t.service_ctx
let config t = t.service_config
let epoch t = t.epoch

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ------------------------------------------------------------------ *)
(* side specs: what a side asks for, what a cached side covers, and which
   sets it keeps *)

let side_spec_of (ctx : Exec.ctx) (q : Query.t) side =
  let info, minsup, constraints =
    match side with
    | `S -> (ctx.Exec.s_info, q.Query.s_minsup, q.Query.s_constraints)
    | `T -> (ctx.Exec.t_info, q.Query.t_minsup, q.Query.t_constraints)
  in
  {
    sp_info = info;
    sp_minsup = Tx_db.absolute_support ctx.Exec.db minsup;
    sp_max_level = q.Query.max_level;
    sp_constraints = constraints;
  }

let side_key spec =
  Fingerprint.side_key ~info:spec.sp_info ~minsup_abs:spec.sp_minsup
    ~max_level:spec.sp_max_level spec.sp_constraints

(* [cached] holds everything [requested] asks for: same attribute table
   ([Fingerprint.info_id] is physical identity), mined at least as deep and
   at most as high a threshold, under an entailed constraint set *)
let spec_covers ~cached ~requested =
  cached.sp_info == requested.sp_info
  && cached.sp_minsup <= requested.sp_minsup
  && (match (cached.sp_max_level, requested.sp_max_level) with
     | None, _ -> true
     | Some c, Some r -> c >= r
     | Some _, None -> false)
  && Entail.subsumes ~cached:cached.sp_constraints ~requested:requested.sp_constraints

(* a set [spec] wants as far as its support and level go *)
let in_range spec (e : Frequent.entry) =
  e.Frequent.support >= spec.sp_minsup
  &&
  match spec.sp_max_level with
  | Some cap -> Itemset.cardinal e.Frequent.set <= cap
  | None -> true

(* [spec]'s 1-var constraints, counting every evaluation as a check *)
let satisfies spec checks set =
  List.for_all
    (fun c ->
      incr checks;
      One_var.eval spec.sp_info c set)
    spec.sp_constraints

(* a cached collection may exceed the request (lower threshold, weaker
   constraints, deferred atoms): filter it down to exactly the valid sets *)
let filter_valid spec freq checks =
  let out = ref [] in
  Frequent.iter
    (fun e -> if in_range spec e && satisfies spec checks e.Frequent.set then out := e :: !out)
    freq;
  Array.of_list (List.rev !out)

(* filter each side's collection to its valid sets and join them on [q]'s
   2-var constraints: the pairs of [q], in formation order *)
let form_pairs (ctx : Exec.ctx) (q : Query.t) checks (spec_s, freq_s) (spec_t, freq_t) =
  let valid_s = filter_valid spec_s freq_s checks in
  let valid_t = filter_valid spec_t freq_t checks in
  let collected = ref [] in
  let stats =
    Pairs.form ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~valid_s ~valid_t
      ~two_var:q.Query.two_var
      ~on_pair:(fun es et -> collected := (es, et) :: !collected)
      ()
  in
  (List.rev !collected, stats)

(* ------------------------------------------------------------------ *)
(* cache entries.  Weights are approximate bytes for the cache budget; the
   collection byte model lives in [Condensed] so raw and condensed forms
   are priced on one scale. *)

let entry_weight = Condensed.entry_weight

let raw_answer_weight (a : answer) =
  List.fold_left (fun acc (s, p) -> acc + 16 + entry_weight s + entry_weight p) 256 a.pairs

let packed_weight pk =
  let sum = Array.fold_left (fun acc e -> acc + entry_weight e) in
  256 + sum 0 pk.pk_s + sum 0 pk.pk_t + (8 * Array.length pk.pk_idx)

(* CFQ_TEST_CONDENSE=1 routes every cached collection and answer through
   condensation even when the closed form is not smaller — the test
   matrices use it to put the whole suite on the condensed paths *)
let force_condense =
  match Sys.getenv_opt "CFQ_TEST_CONDENSE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let condense_on t = t.service_config.condense || force_condense

(* every entry built for the cache is priced for the ratio metrics *)
let record_condensed t ~raw ~stored ~condensed =
  locked t (fun () -> Metrics.record_condensed t.service_metrics ~raw ~stored ~condensed)

(* a freshly mined or promoted collection as a side entry, under its key *)
let side_entry t ~epoch spec freq =
  let cond =
    if condense_on t then Condensed.of_frequent ~force:force_condense freq
    else Condensed.raw freq
  in
  record_condensed t ~raw:(Condensed.raw_bytes cond) ~stored:(Condensed.bytes cond)
    ~condensed:(Condensed.is_condensed cond);
  ( side_key spec,
    { Cache.epoch; payload = { sd_spec = spec; sd_cond = cond }; weight = Condensed.bytes cond }
  )

(* within one answer a side's set determines its entry (all entries of a
   side come from one collection), so sets key the dedup tables *)
let pack_pairs pairs =
  let dedup proj =
    let tbl = Itemset.Hashtbl.create 64 in
    let entries = ref [] and n = ref 0 in
    let idx (e : Frequent.entry) =
      match Itemset.Hashtbl.find_opt tbl e.Frequent.set with
      | Some i -> i
      | None ->
          let i = !n in
          incr n;
          Itemset.Hashtbl.add tbl e.Frequent.set i;
          entries := e :: !entries;
          i
    in
    let ids = List.map (fun p -> idx (proj p)) pairs in
    (Array.of_list (List.rev !entries), ids)
  in
  let s_entries, s_ids = dedup fst in
  let t_entries, t_ids = dedup snd in
  let idx = Array.make (2 * List.length pairs) 0 in
  List.iteri
    (fun i (si, ti) ->
      idx.(2 * i) <- si;
      idx.((2 * i) + 1) <- ti)
    (List.combine s_ids t_ids);
  { pk_s = s_entries; pk_t = t_entries; pk_idx = idx }

(* [a], the answer to the simplified query [q], as an answer entry *)
let answer_entry t ~epoch q (a : answer) =
  let raw = raw_answer_weight a in
  let stored, weight =
    if condense_on t then
      let pk = pack_pairs a.pairs in
      (Packed_pairs pk, packed_weight pk)
    else (Raw_pairs a.pairs, raw)
  in
  record_condensed t ~raw ~stored:weight ~condensed:(condense_on t);
  {
    Cache.epoch;
    payload = { ca_query = q; ca_answer = { a with pairs = [] }; ca_pairs = stored };
    weight;
  }

(* rebuild a side's raw collection — one reconstruction paid when the
   closed form is stored.  Never call with [t.lock] held. *)
let side_frequent t (e : side Cache.entry) =
  let cond = e.Cache.payload.sd_cond in
  if Condensed.is_condensed cond then
    locked t (fun () -> Metrics.record_reconstruction t.service_metrics);
  Condensed.to_frequent cond

(* with [t.lock] held: rebuild the pair list of a cached answer *)
let unpack_answer_locked t (e : cached_answer Cache.entry) =
  let ca = e.Cache.payload in
  match ca.ca_pairs with
  | Raw_pairs pairs -> { ca.ca_answer with pairs }
  | Packed_pairs pk ->
      Metrics.record_reconstruction t.service_metrics;
      let n = Array.length pk.pk_idx / 2 in
      let pairs = ref [] in
      for i = n - 1 downto 0 do
        pairs := (pk.pk_s.(pk.pk_idx.(2 * i)), pk.pk_t.(pk.pk_idx.((2 * i) + 1))) :: !pairs
      done;
      { ca.ca_answer with pairs = !pairs }

(* the cached side collection that answers [spec] with the fewest sets *)
let covering_side spec =
  Cache.Covering
    {
      covers = (fun s -> spec_covers ~cached:s.sd_spec ~requested:spec);
      rank = (fun s -> Condensed.n_sets s.sd_cond);
    }

(* with [t.lock] held: the answer-cache hit for [key] at [epoch], served at
   zero cost with the latency since [t0] *)
let answer_hit_locked t ~epoch ~t0 key =
  match Cache.lookup t.answers ~epoch (Cache.Exact key) with
  | None -> None
  | Some e ->
      Metrics.record_answer_hit t.service_metrics;
      let a = unpack_answer_locked t e in
      let latency = Unix.gettimeofday () -. t0 in
      Metrics.record_query t.service_metrics ~latency ~support_counted:0
        ~constraint_checks:0 ~scans:0 ~pages_read:0;
      Some
        {
          a with
          served_from = Answer_cache;
          support_counted = 0;
          constraint_checks = 0;
          scans = 0;
          pages_read = 0;
          latency_seconds = latency;
        }

(* ------------------------------------------------------------------ *)
(* deadline handling *)

exception Expired

let check_deadline = function
  | Some d when Unix.gettimeofday () > d -> raise Expired
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* side resolution: cached collection via subsumption, or cold CAP mining *)

(* drive the CAP state machine one level at a time so the deadline is
   honoured between scans *)
let mine_side ~deadline ~par ~kernel ~calibrate ~calibration (ctx : Exec.ctx)
    spec io =
  let bundle = Bundle.compile ~nonneg:ctx.Exec.nonneg spec.sp_info spec.sp_constraints in
  let state =
    Cap.create ctx.Exec.db spec.sp_info ?max_level:spec.sp_max_level
      ~minsup:spec.sp_minsup bundle
  in
  (* one adaptive session per cold mine: its projection and bitmaps live
     exactly as long as this side's levelwise run — but the calibration
     record is the service's, so measured throughput carries across
     queries *)
  let session =
    if kernel = Counting.Trie then None
    else
      let plan =
        { (Counting.plan_of_kernel kernel) with Counting.calibrate }
      in
      Some (Counting.create_session ~plan ~calibration ())
  in
  let rec loop () =
    check_deadline deadline;
    match Cap.next_candidates state with
    | None -> ()
    | Some cands ->
        let counts =
          Counting.count_level ~par ?session ctx.Exec.db io (Cap.counters state) cands
        in
        let pass_kernel =
          match session with Some s -> Counting.last_kernel s | None -> "trie"
        in
        let (_ : Frequent.entry array) = Cap.absorb ~kernel:pass_kernel state counts in
        loop ()
  in
  loop ();
  (Cap.result state, Cap.counters state, session)

(* [spec]'s collection, raw, and whether the cache supplied it.  The cold
   path returns the collection as mined: it never pays a reconstruction. *)
let resolve_side t ~deadline ~ctx ~epoch spec io counters =
  check_deadline deadline;
  let hit =
    locked t (fun () ->
        let hit = Cache.lookup t.sides ~epoch (covering_side spec) in
        if Option.is_some hit then Metrics.record_subsumption_hit t.service_metrics;
        hit)
  in
  match hit with
  | Some e -> (side_frequent t e, true)
  | None ->
      let freq, side_counters, session =
        mine_side ~deadline ~par:t.mine_par ~kernel:t.service_config.kernel
          ~calibrate:t.service_config.calibrate ~calibration:t.calibration ctx
          spec io
      in
      Counters.merge counters side_counters;
      (match session with
      | Some s ->
          let pc = Counting.pass_counts s in
          locked t (fun () ->
              Metrics.record_kernel_passes t.service_metrics
                ~trie:pc.Counting.trie_passes ~direct2:pc.Counting.direct2_passes
                ~vertical:pc.Counting.vertical_passes
                ~projected_scans:pc.Counting.projected_scans
                ~bitmap_builds:pc.Counting.bitmap_builds;
              Metrics.observe_calibration_samples t.service_metrics
                (Counting.calibration_samples t.calibration))
      | None -> ());
      let key, e = side_entry t ~epoch spec freq in
      locked t (fun () ->
          Metrics.record_side_mined t.service_metrics;
          ignore (Cache.insert t.sides ~epoch:t.epoch key e : bool));
      (freq, false)

(* ------------------------------------------------------------------ *)
(* one query, in a worker domain *)

let execute t ~deadline (q : Query.t) =
  let t0 = Unix.gettimeofday () in
  (* one consistent snapshot: the ctx and the epoch its supports belong to *)
  let ctx, epoch = locked t (fun () -> (t.service_ctx, t.epoch)) in
  let rw = Rewrite.simplify q in
  let q = rw.Rewrite.query in
  let key = Fingerprint.query_key ctx q in
  let cached =
    locked t (fun () ->
        let hit = answer_hit_locked t ~epoch ~t0 key in
        if Option.is_none hit then Metrics.record_answer_miss t.service_metrics;
        hit)
  in
  match cached with
  | Some a -> a
  | None ->
      let io = Io_stats.create () in
      let counters = Counters.create () in
      let checks = ref 0 in
      let answer =
        if rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then
          {
            pairs = [];
            n_pairs = 0;
            served_from = Cold;
            support_counted = 0;
            constraint_checks = 0;
            scans = 0;
            pages_read = 0;
            latency_seconds = 0.;
            notes = rw.Rewrite.notes @ [ "query is unsatisfiable; nothing was mined" ];
          }
        else begin
          let spec_s = side_spec_of ctx q `S and spec_t = side_spec_of ctx q `T in
          let freq_s, s_cached = resolve_side t ~deadline ~ctx ~epoch spec_s io counters in
          let freq_t, t_cached = resolve_side t ~deadline ~ctx ~epoch spec_t io counters in
          check_deadline deadline;
          let pairs, pair_stats = form_pairs ctx q checks (spec_s, freq_s) (spec_t, freq_t) in
          {
            pairs;
            n_pairs = pair_stats.Pairs.n_pairs;
            served_from = (if s_cached && t_cached then Subsumed else Cold);
            support_counted = Counters.support_counted counters;
            constraint_checks = !checks + pair_stats.Pairs.checks;
            scans = Io_stats.scans io;
            pages_read = Io_stats.pages_read io;
            latency_seconds = 0.;
            notes = rw.Rewrite.notes;
          }
        end
      in
      let latency = Unix.gettimeofday () -. t0 in
      let answer = { answer with latency_seconds = latency } in
      let e = answer_entry t ~epoch q answer in
      locked t (fun () ->
          ignore (Cache.insert t.answers ~epoch:t.epoch key e : bool);
          Metrics.record_query t.service_metrics ~latency
            ~support_counted:answer.support_counted
            ~constraint_checks:answer.constraint_checks ~scans:answer.scans
            ~pages_read:answer.pages_read);
      Log.debug (fun m ->
          m "served %s: %d pairs, %d counted (%s)" key answer.n_pairs
            answer.support_counted
            (served_from_name answer.served_from));
      answer

(* ------------------------------------------------------------------ *)
(* graceful degradation: serve a failed query by filtering a cached
   superset answer.  Cached pairs carry absolute supports exact for their
   epoch, so filtering an entailed superset answer of the current epoch
   down to the requested thresholds and constraints yields exactly the
   requested pairs; what degrades is only the per-query cost accounting
   and notes. *)

(* every 2-var atom the cached run enforced is requested too, so no pair
   the requested query wants was pruned from the cached answer *)
let two_var_covers ~cached ~requested =
  List.for_all (fun c -> List.mem c requested) cached

let filter_answer (ctx : Exec.ctx) (q : Query.t) (a : answer) =
  let spec_s = side_spec_of ctx q `S and spec_t = side_spec_of ctx q `T in
  let checks = ref 0 in
  let keep ((es : Frequent.entry), (et : Frequent.entry)) =
    in_range spec_s es && in_range spec_t et
    && satisfies spec_s checks es.Frequent.set
    && satisfies spec_t checks et.Frequent.set
    && List.for_all
         (fun c ->
           incr checks;
           Two_var.eval ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info c
             es.Frequent.set et.Frequent.set)
         q.Query.two_var
  in
  let pairs = List.filter keep a.pairs in
  {
    pairs;
    n_pairs = List.length pairs;
    served_from = Degraded;
    support_counted = 0;
    constraint_checks = !checks;
    scans = 0;
    pages_read = 0;
    latency_seconds = 0.;
    notes = [ "degraded: filtered from a cached superset answer" ];
  }

(* with [t.lock] held: the most recent cached answer of the current epoch
   that covers the simplified query, filtered down to it *)
let degraded_locked t (rw : Rewrite.outcome) =
  if (not t.service_config.degrade) || rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then None
  else begin
    let ctx = t.service_ctx and q = rw.Rewrite.query in
    let spec_s = side_spec_of ctx q `S and spec_t = side_spec_of ctx q `T in
    let covers ca =
      let cq = ca.ca_query in
      spec_covers ~cached:(side_spec_of ctx cq `S) ~requested:spec_s
      && spec_covers ~cached:(side_spec_of ctx cq `T) ~requested:spec_t
      && two_var_covers ~cached:cq.Query.two_var ~requested:q.Query.two_var
    in
    match
      Cache.lookup t.answers ~epoch:t.epoch (Cache.Covering { covers; rank = (fun _ -> 0) })
    with
    | None -> None
    | Some e ->
        Metrics.record_degraded t.service_metrics;
        Some (filter_answer ctx q (unpack_answer_locked t e))
  end

(* ------------------------------------------------------------------ *)
(* circuit breakers *)

(* with [t.lock] held: an admission through [b].  [false] while open: the
   admission counts toward the cooldown and must be served from the
   caches or shed *)
let breaker_passes b =
  match b.br_state with
  | Closed | Half_open -> true
  | Open n ->
      b.br_state <- (if n <= 1 then Half_open else Open (n - 1));
      false

(* with [t.lock] held *)
let trip t b =
  b.br_trips <- b.br_trips + 1;
  b.br_state <- Open (max 1 t.service_config.breaker_cooldown)

(* with [t.lock] held: a failure while half-open reopens [b], and
   [breaker_threshold] consecutive failures trip it.  [true] on a trip. *)
let breaker_failure t b =
  b.br_consec <- b.br_consec + 1;
  let threshold = t.service_config.breaker_threshold in
  let trips =
    threshold > 0
    &&
    match b.br_state with
    | Half_open -> true
    | Closed -> b.br_consec >= threshold
    | Open _ -> false
  in
  if trips then trip t b;
  trips

(* with [t.lock] held: a success closes [b] (in particular a half-open
   probe) *)
let breaker_success b =
  b.br_consec <- 0;
  b.br_state <- Closed

(* attribute a failure to the shard owning its error page.  Only faults
   installed on individual shards are attributable: with an injector on
   the whole composite the failure is store-wide, so shard breakers stay
   out of it and only the global breaker reacts. *)
let shard_of_error t (e : Cfq_error.t) =
  let db = t.service_ctx.Exec.db in
  if Array.length t.shard_health = 0 || Tx_db.faults db <> None then None
  else
    match e with
    | Cfq_error.Transient_io { page } | Cfq_error.Corrupt_page { page } -> (
        match Tx_db.shard_of_page db page with
        | k -> Some k
        | exception Invalid_argument _ -> None)
    | Cfq_error.Deadline | Cfq_error.Overload | Cfq_error.Query_crash _ -> None

(* with [t.lock] held *)
let shard_note_failure_locked t e =
  match shard_of_error t e with
  | None -> ()
  | Some k ->
      let sh = t.shard_health.(k) in
      sh.sh_failures <- sh.sh_failures + 1;
      ignore (breaker_failure t sh.sh_breaker : bool)

(* Settle the breakers on the raw (pre-degradation) outcome of an executed
   query.  Any success closes the global breaker and any failure charges
   it.  Only an answer that scanned proves every shard served its slice
   and closes the shard breakers: cache-served answers and the
   unsatisfiable-query shortcut read nothing. *)
let breakers_note_outcome t raw =
  locked t (fun () ->
      match raw with
      | Ok a ->
          breaker_success t.breaker;
          if a.scans > 0 then
            Array.iter (fun sh -> breaker_success sh.sh_breaker) t.shard_health
      | Error _ -> if breaker_failure t t.breaker then Metrics.record_breaker_trip t.service_metrics)

(* ------------------------------------------------------------------ *)
(* retries and the guarded query wrapper *)

(* The jitter is a pure function of (jitter_seed, query, attempt): a fresh
   SplitMix stream keyed by their mix, rather than draws from one shared
   stream whose order would depend on domain scheduling — so a fault-twin
   run sees identical backoff delays at any worker count. *)
let retry_delay t q attempt =
  let key =
    Int64.logxor t.service_config.jitter_seed
      (Int64.add
         (Int64.mul (Int64.of_int (Hashtbl.hash q)) 0x9E3779B97F4A7C15L)
         (Int64.of_int attempt))
  in
  let jitter = Cfq_quest.Splitmix.float (Cfq_quest.Splitmix.create ~seed:key) in
  t.service_config.backoff_base *. (2. ** float_of_int attempt) *. (0.5 +. jitter)

let guarded t ~deadline q () =
  let fail e =
    locked t (fun () ->
        Metrics.record_fault t.service_metrics e;
        Metrics.record_failure t.service_metrics;
        shard_note_failure_locked t e);
    Error (Fault e)
  in
  let rec attempt n =
    match execute t ~deadline q with
    | a -> Ok a
    | exception Expired ->
        locked t (fun () ->
            Metrics.record_deadline_expired t.service_metrics;
            Metrics.record_query t.service_metrics
              ~latency:(0. (* not meaningfully attributable *))
              ~support_counted:0 ~constraint_checks:0 ~scans:0 ~pages_read:0);
        Error Deadline_exceeded
    | exception Cfq_error.Error e ->
        if Cfq_error.is_transient e && n < t.service_config.retries then begin
          let delay = retry_delay t q n in
          let in_budget =
            match deadline with
            | Some d -> Unix.gettimeofday () +. delay < d
            | None -> true
          in
          if in_budget then begin
            locked t (fun () -> Metrics.record_retry t.service_metrics);
            if delay > 0. then Unix.sleepf delay;
            attempt (n + 1)
          end
          else fail e
        end
        else fail e
    | exception e -> fail (Cfq_error.Query_crash (Printexc.to_string e))
  in
  let raw = attempt 0 in
  breakers_note_outcome t raw;
  match raw with
  | Ok _ -> raw
  | Error (Fault _ | Deadline_exceeded) -> (
      match locked t (fun () -> degraded_locked t (Rewrite.simplify q)) with
      | Some a -> Ok a
      | None -> raw)
  | Error _ -> raw

(* ------------------------------------------------------------------ *)
(* admission *)

let absolute_deadline t deadline =
  match (deadline, t.service_config.default_deadline) with
  | Some d, _ | None, Some d -> Some (Unix.gettimeofday () +. d)
  | None, None -> None

(* with [t.lock] held: serve an admission arriving while some breaker is
   open from the caches alone, or shed it *)
let open_serve_locked t (q : Query.t) =
  let t0 = Unix.gettimeofday () in
  let rw = Rewrite.simplify q in
  let key = Fingerprint.query_key t.service_ctx rw.Rewrite.query in
  match answer_hit_locked t ~epoch:t.epoch ~t0 key with
  | Some a -> `Serve a
  | None -> (
      match degraded_locked t rw with
      | Some a -> `Serve a
      | None ->
          Metrics.record_shed t.service_metrics;
          `Shed)

(* Admission under the breakers: the global one first, then the shards'.
   An admitted query fans over every shard, so one open shard breaker
   degrades it to cache-only serving while that shard cools down; a
   half-open breaker admits the probe.  Every admission while open counts
   toward the cooldown, served from cache or shed alike, so a breaker
   always half-opens after [breaker_cooldown] admissions. *)
let admit t (q : Query.t) =
  if t.service_config.breaker_threshold <= 0 then `Admit
  else
    locked t (fun () ->
        if not (breaker_passes t.breaker) then open_serve_locked t q
        else
          (* stops at the first open shard breaker: only that one counts
             the admission toward its cooldown *)
          match Array.find_opt (fun sh -> not (breaker_passes sh.sh_breaker)) t.shard_health with
          | None -> `Admit
          | Some sh -> (
              match open_serve_locked t q with
              | `Serve a -> `Serve a
              | `Shed ->
                  sh.sh_shed <- sh.sh_shed + 1;
                  `Shed))

let submit_abs t ~deadline q =
  match admit t q with
  | `Serve a -> Ok (Immediate (Ok a))
  | `Shed -> Error Overloaded
  | `Admit -> (
      locked t (fun () ->
          Metrics.observe_queue_depth t.service_metrics (Pool.queue_depth t.pool);
          Array.iter
            (fun sh -> sh.sh_admissions <- sh.sh_admissions + 1)
            t.shard_health);
      match Pool.submit t.pool (guarded t ~deadline q) with
      | Some p ->
          locked t (fun () -> t.consec_rejections <- 0);
          Ok (Pooled p)
      | None ->
          locked t (fun () ->
              Metrics.record_rejected t.service_metrics;
              t.consec_rejections <- t.consec_rejections + 1;
              if
                t.service_config.breaker_threshold > 0
                && t.breaker.br_state = Closed
                && t.consec_rejections >= t.service_config.breaker_threshold
              then begin
                trip t t.breaker;
                Metrics.record_breaker_trip t.service_metrics;
                t.consec_rejections <- 0
              end);
          Error Rejected
      | exception Cfq_error.Error Cfq_error.Overload ->
          (* pool already shut down: report Rejected so [run] still serves
             the caller inline *)
          locked t (fun () -> Metrics.record_rejected t.service_metrics);
          Error Rejected)

let submit t ?deadline q = submit_abs t ~deadline:(absolute_deadline t deadline) q

let await = function Pooled p -> Pool.await p | Immediate r -> r

let run t ?deadline q =
  (* the deadline is fixed once at admission, so the queue-full fallback
     below runs under the same budget the pooled path would have had *)
  let deadline = absolute_deadline t deadline in
  match submit_abs t ~deadline q with
  | Ok ticket -> await ticket
  | Error Rejected ->
      (* sync caller: execute inline rather than bouncing *)
      locked t (fun () -> Metrics.record_inline_run t.service_metrics);
      guarded t ~deadline q ()
  | Error e -> Error e

let run_many t ?deadline qs =
  (* submit everything, draining the oldest ticket whenever admission is
     refused, so arbitrarily long batches respect the bounded queue *)
  let results = ref [] (* (index, result) *) in
  let pending = Queue.create () (* (index, ticket) in submission order *) in
  let drain_one () =
    match Queue.take_opt pending with
    | None -> ()
    | Some (i, ticket) -> results := (i, await ticket) :: !results
  in
  List.iteri
    (fun i q ->
      let rec try_submit () =
        match submit t ?deadline q with
        | Ok ticket -> Queue.add (i, ticket) pending
        | Error Rejected when Queue.length pending > 0 ->
            drain_one ();
            try_submit ()
        | Error e -> results := (i, Error e) :: !results
      in
      try_submit ())
    qs;
  while Queue.length pending > 0 do
    drain_one ()
  done;
  List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) !results)

let breaker_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let metrics t =
  locked t (fun () ->
      let shard_ios = Tx_db.shard_io t.service_ctx.Exec.db in
      let shards =
        Array.to_list
          (Array.mapi
             (fun k sh ->
               let io =
                 if k < Array.length shard_ios then Some shard_ios.(k) else None
               in
               {
                 Metrics.shard = k;
                 shard_admissions = sh.sh_admissions;
                 shard_failures = sh.sh_failures;
                 shard_trips = sh.sh_breaker.br_trips;
                 shard_shed = sh.sh_shed;
                 shard_breaker = breaker_name sh.sh_breaker.br_state;
                 shard_scans =
                   (match io with Some io -> Io_stats.scans io | None -> 0);
                 shard_pages_read =
                   (match io with Some io -> Io_stats.pages_read io | None -> 0);
                 shard_failovers =
                   (match io with Some io -> Io_stats.failovers io | None -> 0);
               })
             t.shard_health)
      in
      let failovers =
        Array.fold_left (fun a io -> a + Io_stats.failovers io) 0 shard_ios
      in
      Metrics.snapshot t.service_metrics ~shards ~failovers
        ~answer_entries:(Lru.length t.answers)
        ~answer_bytes:(Lru.weight t.answers)
        ~side_entries:(Lru.length t.sides)
        ~side_bytes:(Lru.weight t.sides)
        ~evictions:(Lru.evictions t.answers + Lru.evictions t.sides)
        ())

let metrics_table t = Metrics.table (metrics t)

let cache_clear t =
  locked t (fun () ->
      Lru.clear t.answers;
      Lru.clear t.sides)

let cache_drop_sides t = locked t (fun () -> Lru.clear t.sides)

let shutdown t = Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* live ingestion: epoch-tagged incremental maintenance across seals *)

type live = {
  lv_epoch : int;
  lv_sealed : int;
  lv_sides_promoted : int;
  lv_sides_evicted : int;
  lv_answers_promoted : int;
  lv_answers_evicted : int;
  lv_recounted : int;
  lv_old_scans : int;
  lv_scans : int;
  lv_pages_read : int;
}

let attach_source t src =
  locked t (fun () ->
      t.live_source <- Some src;
      t.epoch <- Cfq_live.Source.epoch src)

let live_source t = t.live_source

let ingest t items =
  match t.live_source with
  | Some src -> Cfq_live.Source.append_tx src items
  | None -> invalid_arg "Service.ingest: no live source attached"

(* The maintenance pass for one seal.  Sides are promoted by FUP, counting
   only the resident delta twin (plus at most one old-database scan per
   entry, for seeded candidates); cached answers are then re-derived from
   the promoted collections — the same filter and pair formation the
   subsumption path runs, no scans at all.  Every promotion goes through
   [Cache.promote], which drops it if another seal raced us; the final
   purge then removes whatever is still stale. *)
let maintain t ~old_ctx ~new_ctx ~new_epoch ~(delta : Cfq_live.Delta.t) ~maint_io
    ~stale_sides ~stale_answers () =
  let sides_promoted = ref 0 and sides_evicted = ref 0 in
  let answers_promoted = ref 0 and answers_evicted = ref 0 in
  let tally promoted evicted ok = incr (if ok then promoted else evicted) in
  let recounted = ref 0 and old_scans = ref 0 in
  (* one Level_stats per seal: every promotion's FUP rows land here, so the
     pass's per-level cost is observable alongside the Metrics counters *)
  let lstats = Level_stats.create () in
  let universe =
    max
      (Item_info.universe_size old_ctx.Exec.s_info)
      (Item_info.universe_size old_ctx.Exec.t_info)
  in
  List.iter
    (fun (old_key, (e : side Cache.entry)) ->
      if e.Cache.epoch < new_epoch then begin
        let spec = e.Cache.payload.sd_spec in
        match
          (* a condensed entry is rebuilt first: FUP delta-counts the full
             collection, and [side_entry] re-closes the promoted result *)
          Cfq_live.Maintain.promote ~stats:lstats ~old_db:old_ctx.Exec.db ~delta
            maint_io ~old_minsup:spec.sp_minsup ~max_level:spec.sp_max_level
            ~universe_size:universe (side_frequent t e)
        with
        | exception _ ->
            (* a faulted promotion leaves the entry stale; the purge below
               removes it, so the cache still lands on a consistent epoch *)
            incr sides_evicted
        | freq', minsup', pstats ->
            recounted := !recounted + pstats.Cfq_live.Maintain.recounted;
            old_scans := !old_scans + pstats.Cfq_live.Maintain.old_scans;
            let key, e' =
              side_entry t ~epoch:new_epoch { spec with sp_minsup = minsup' } freq'
            in
            tally sides_promoted sides_evicted
              (locked t (fun () -> Cache.promote t.sides ~epoch:t.epoch ~old_key key e'))
      end)
    stale_sides;
  List.iter
    (fun (old_key, (e : cached_answer Cache.entry)) ->
      if e.Cache.epoch < new_epoch then begin
        let ca = e.Cache.payload in
        let q = ca.ca_query in
        let spec_s = side_spec_of new_ctx q `S and spec_t = side_spec_of new_ctx q `T in
        let covering spec =
          Cache.lookup ~bump:false t.sides ~epoch:new_epoch (covering_side spec)
        in
        tally answers_promoted answers_evicted
          (match locked t (fun () -> (covering spec_s, covering spec_t)) with
          | Some es, Some et ->
              let freq_s = side_frequent t es in
              let freq_t = side_frequent t et in
              let pairs, pair_stats =
                form_pairs new_ctx q (ref 0) (spec_s, freq_s) (spec_t, freq_t)
              in
              let a' = { ca.ca_answer with pairs; n_pairs = pair_stats.Pairs.n_pairs } in
              let e' = answer_entry t ~epoch:new_epoch q a' in
              let key = Fingerprint.query_key new_ctx q in
              locked t (fun () -> Cache.promote t.answers ~epoch:t.epoch ~old_key key e')
          | _ ->
              locked t (fun () -> Cache.retire t.answers ~epoch:new_epoch old_key);
              false)
      end)
    stale_answers;
  (* whatever is still stale — faulted promotions, budget-refused inserts,
     raced seals — goes now: every surviving entry is at the live epoch *)
  locked t (fun () ->
      Cache.purge t.sides ~epoch:t.epoch;
      Cache.purge t.answers ~epoch:t.epoch;
      Metrics.record_maintenance t.service_metrics ~sides_promoted:!sides_promoted
        ~sides_evicted:!sides_evicted ~answers_promoted:!answers_promoted
        ~answers_evicted:!answers_evicted ~recounted:!recounted
        ~old_scans:!old_scans ~scans:(Io_stats.scans maint_io)
        ~pages_read:(Io_stats.pages_read maint_io));
  Log.debug (fun m ->
      m "epoch %d: %d+%d sides, %d+%d answers promoted+evicted (%d pages)@ %a"
        new_epoch !sides_promoted !sides_evicted !answers_promoted
        !answers_evicted
        (Io_stats.pages_read maint_io)
        Level_stats.pp lstats);
  {
    lv_epoch = new_epoch;
    lv_sealed = delta.Cfq_live.Delta.delta_txs;
    lv_sides_promoted = !sides_promoted;
    lv_sides_evicted = !sides_evicted;
    lv_answers_promoted = !answers_promoted;
    lv_answers_evicted = !answers_evicted;
    lv_recounted = !recounted;
    lv_old_scans = !old_scans;
    lv_scans = Io_stats.scans maint_io;
    lv_pages_read = Io_stats.pages_read maint_io;
  }

let seal_live t =
  match t.live_source with
  | None -> invalid_arg "Service.seal_live: no live source attached"
  | Some src -> (
      let maint_io = Io_stats.create () in
      let old_ctx = locked t (fun () -> t.service_ctx) in
      match Cfq_live.Source.seal src maint_io with
      | None -> None
      | Some delta ->
          let new_epoch = Cfq_live.Source.epoch src in
          let new_ctx = { old_ctx with Exec.db = Cfq_live.Source.db src } in
          let stale_sides, stale_answers =
            locked t (fun () ->
                (* swap first: queries admitted from here on run against the
                   new database (cold until promotion catches up — correct,
                   just unwarmed), while in-flight queries finish against
                   the still-readable pre-seal snapshot they captured *)
                t.service_ctx <- new_ctx;
                t.epoch <- new_epoch;
                Metrics.record_seal t.service_metrics ~epoch:new_epoch;
                (* LRU-first, so re-insertions preserve the recency order *)
                (Cache.lru_first t.sides, Cache.lru_first t.answers))
          in
          (* the pass runs on a worker domain (bounded admission: the pool's
             queue), inline in the caller when the queue is full *)
          Some
            (Pool.run t.pool
               (maintain t ~old_ctx ~new_ctx ~new_epoch ~delta ~maint_io
                  ~stale_sides ~stale_answers)))

(* The repository benchmark.

     bench.exe --workload refine|adhoc-store|ingest-live --seed N
               --seconds S --trace 0|1 [--rev REV]

   Each workload is a closed loop driven by one client (this domain): the
   next operation is sent only after the previous one returns.  The
   service runs [Service.default_config] with [domains] capped at the
   machine's core count; every input is generated from [--seed].

   A run is a fixed number of units of work — refine sessions, adhoc
   queries, ingest-live seal cycles — sized from [--seconds] so that one
   pass takes about that long on a 2-core machine.  Every run of a seed
   then does the same work, whatever the machine's speed.

   --trace 0 measures the end-to-end metrics over one pass.
   --trace 1 runs a half-length pass three times on fresh set-ups —
   untraced, traced with a replay of every query's miss path and every
   seal's maintenance, untraced again — and reports the per-layer
   metrics, the tracing overhead (traced minus the second untraced run),
   the exact-count check (all runs' deterministic counters must agree) and
   the replay-fidelity check (the replay's counters must equal the
   service's).  Every answer of both modes is checked against a cold oracle
   run outside the timed region.

   The last line of standard output is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}.  The
   exit code is non-zero on any oracle mismatch or failed check. *)

open Cfq_itembase
open Cfq_core
open Cfq_perfbench
module Service = Cfq_service.Service
module Metrics = Cfq_service.Metrics
module Tx_db = Cfq_txdb.Tx_db
module Io_stats = Cfq_txdb.Io_stats
module Store = Cfq_store.Store
module Sharded = Cfq_shard.Sharded
module Source = Cfq_live.Source

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* arguments *)

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]"

let workload, seed, seconds, trace, rev =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "refine | adhoc-store | ingest-live");
      ("--seed", Arg.String (fun s -> seed := Some (Int64.of_string s)), "workload seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "1: traced per-layer run");
      ("--rev", Arg.Set_string rev, "source revision, recorded in the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (!workload, !seed) with
  | ("refine" | "adhoc-store" | "ingest-live"), Some s when !seconds >= 1 ->
      (!workload, s, !seconds, !trace = 1, !rev)
  | _ ->
      prerr_endline usage;
      exit 2

let nproc = Domain.recommended_domain_count ()

(* a workload that blows up (e.g. a threshold so low every subset is
   frequent) must stop before it starves the machine *)
let heap_limit_words = 3 * 1024 * 1024 * 1024 / (Sys.word_size / 8)

let (_ : Gc.alarm) =
  Gc.create_alarm (fun () ->
      if (Gc.quick_stat ()).Gc.heap_words > heap_limit_words then begin
        prerr_endline "FAIL: heap above 3 GiB; stopping";
        exit 3
      end)

let config =
  { Service.default_config with domains = min Service.default_config.Service.domains nproc }

let fail_check fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* scratch files: stores live under perfbench/_out/<workload>-<pid> *)

let out_root = Filename.concat "perfbench" "_out"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let run_dir = Filename.concat out_root (Printf.sprintf "%s-%d" workload (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* set-up *)

type env = {
  service : Service.t;
  info : Item_info.t;
  base : Itemset.t array;  (** the transactions of epoch 0 *)
  stores : Store.t array;  (** physical stores, for buffer-pool counters *)
  store_path : string option;  (** ingest-live store, for the twin *)
  close : unit -> unit;
}

let scale_note =
  match workload with
  | "refine" -> Printf.sprintf "%d tx in memory" Gen.refine_tx
  | "adhoc-store" -> Printf.sprintf "%d tx, 2-shard store, pool 1/2 of each shard" Gen.adhoc_tx
  | _ -> Printf.sprintf "%d base tx in a store, %d-tx batches" Gen.live_base_tx Gen.live_batch_tx

(* Units of work of one pass after the warm-up: refine sessions of 50
   queries, adhoc queries, ingest-live cycles of one seal and the 3-query
   script.  At 20 seconds on a 2-core machine an adhoc-store pass takes
   about 25 s and an ingest-live pass about 17 s.  refine's 20 sessions
   take about 10 s: its oracle, a cold run for each of a session's 45
   distinct queries, costs three times the pass, and 20 sessions already
   give the 1000 queries that put its tail at p99, inside the cold class
   (1 query in 50).  adhoc-store's 100 queries put its tail at p90.
   ingest-live's 48 queries leave its tail at p50: they are answer-cache
   hits of about half a millisecond, whose p90 measured the machine's
   scheduling noise (a quartile spread of 0.63 over five seeds, with a
   7-query script) rather than the program. *)
let units =
  match workload with
  | "refine" -> seconds
  | "adhoc-store" -> 5 * seconds
  | _ -> max 1 (4 * seconds / 5)

(* A traced run makes three passes and replays every query's miss path,
   so its passes are half as long, to stay within a few minutes. *)
let traced_units = max 1 (units / 2)

(* ingest-live's appended batches, one per seal cycle.  They are inputs
   like the query texts, made once outside the timed set-up. *)
let batches =
  if workload = "ingest-live" then snd (Gen.live_data ~n_batches:units) else [||]

let setup k =
  let dir = Filename.concat run_dir (Printf.sprintf "setup%d" k) in
  mkdir_p dir;
  let info = Gen.item_info ~seed:Gen.data_seed in
  match workload with
  | "refine" ->
      let base = Gen.quest ~seed:Gen.data_seed ~n_tx:Gen.refine_tx in
      let service = Service.create ~config (Exec.context (Tx_db.create base) info) in
      {
        service;
        info;
        base;
        stores = [||];
        store_path = None;
        close = (fun () -> Service.shutdown service);
      }
  | "adhoc-store" ->
      let base = Gen.quest ~seed:Gen.data_seed ~n_tx:Gen.adhoc_tx in
      let path = Filename.concat dir "adhoc.cfqdb" in
      let shards = 2 in
      Sharded.build ~shards path base;
      let pages = Tx_db.pages (Tx_db.create base) in
      let sh = Sharded.open_ ~cache_pages:(max 1 (pages / (2 * shards))) path in
      let service = Service.create ~config (Exec.context (Sharded.db sh) info) in
      {
        service;
        info;
        base;
        stores = Sharded.stores sh;
        store_path = None;
        close =
          (fun () ->
            Service.shutdown service;
            Sharded.close sh;
            Sharded.remove_files path);
      }
  | _ ->
      let base, _ = Gen.live_data ~n_batches:0 in
      let path = Filename.concat dir "live.cfqdb" in
      Store.build path base;
      let store = Store.open_ path in
      let src = Source.of_store store in
      let service = Service.create ~config (Exec.context (Source.db src) info) in
      Service.attach_source service src;
      {
        service;
        info;
        base;
        stores = [| store |];
        store_path = Some path;
        close =
          (fun () ->
            Service.shutdown service;
            Store.close store);
      }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Set up at least [min_reps] times and until [min_total] seconds of set-up
   have been timed (at most [max_reps]), time each, keep the last; the
   median of many cheap set-ups is as steady as that of a few dear ones.
   Each set-up starts from a collected heap, so one set-up's garbage is not
   the next one's cost. *)
let min_reps = 5
let max_reps = 25
let min_total = 2.

let timed_setup () =
  let times = ref [] and env = ref None in
  let rec go k =
    if k <= max_reps && (k <= min_reps || List.fold_left ( +. ) 0. !times < min_total) then begin
      Option.iter (fun e -> e.close ()) !env;
      env := None;
      Gc.full_major ();
      let t0 = now () in
      let e = setup k in
      times := (now () -. t0) :: !times;
      env := Some e;
      go (k + 1)
    end
  in
  go 1;
  (Option.get !env, median !times, List.length !times)

(* ------------------------------------------------------------------ *)
(* operations *)

type kind = Query | Seal

type op = {
  id : int;
  kind : kind;
  text : string;  (** query text; "seal" for a seal *)
  epoch : int;  (** epoch the operation ran at (a seal: the epoch it made) *)
  measured : bool;  (** part of the measured phase (warm-up is not) *)
  latency : float;  (** client seconds: parse + run, or ingest + seal *)
  run_s : float;  (** [Service.run], or [Service.seal_live] *)
  append_s : float;  (** seal ops: the batch's [Service.ingest] calls *)
  service_s : float;  (** [answer.latency_seconds] *)
  ok : bool;
  served : string;
  digest : Oracle.digest;
  counts : int array;
      (** query: support counted, checks, scans, pages, pairs;
          seal: recounted, old scans, scans, pages, sides and answers
          promoted, entries evicted *)
}

type client = {
  env : env;
  tracer : Tracer.t option;
  replay : Replay.t option;
  mutable ops : op list;  (** newest first *)
  mutable next_id : int;
  mutable measuring : bool;
  mutable answered : Query.t list;
      (** distinct simplified queries answered, i.e. the answers the service
          caches (traced runs; maintenance re-derives each at a seal) *)
  mutable replay_mismatches : string list;
  mutable metric_deltas : (int * int array) list;  (** op id -> service metric deltas *)
  mutable twin : Source.t option;  (** ingest-live twin live source (traced) *)
  mutable twin_seal_s : float list;
  mutable seal_replay_s : float list;
  mutable aux_s : float;  (** traced run: replay and twin-store seconds *)
}

let span c name f = Tracer.maybe c.tracer name f

let pool_counts stores =
  Array.fold_left
    (fun (h, m, e) s ->
      let io = Store.io s in
      (h + Io_stats.pool_hits io, m + Io_stats.pool_misses io, e + Io_stats.pool_evictions io))
    (0, 0, 0) stores

(* The counters a traced operation is charged with, read before and after
   it so the replay that follows is never charged: service metrics, the
   buffer pools' traffic and each shard's scan traffic. *)
let op_counter_names =
  [|
    "answer_hits";
    "subsumption_hits";
    "sides_mined";
    "reconstructions";
    "evictions";
    "inline_runs";
    "pool_hits";
    "pool_misses";
    "pool_evictions";
    "shard0_scans";
    "shard0_pages";
    "shard1_scans";
    "shard1_pages";
  |]

let op_counters env =
  let m = Service.metrics env.service in
  let h, mi, e = pool_counts env.stores in
  let shard k f =
    let ios = Tx_db.shard_io (Service.ctx env.service).Exec.db in
    if k < Array.length ios then f ios.(k) else 0
  in
  [|
    m.Metrics.answer_hits;
    m.Metrics.subsumption_hits;
    m.Metrics.sides_mined;
    m.Metrics.reconstructions;
    m.Metrics.evictions;
    m.Metrics.inline_runs;
    h;
    mi;
    e;
    shard 0 Io_stats.scans;
    shard 0 Io_stats.pages_read;
    shard 1 Io_stats.scans;
    shard 1 Io_stats.pages_read;
  |]

let with_op c f =
  let id = c.next_id in
  c.next_id <- id + 1;
  match c.tracer with
  | None -> f id
  | Some tr ->
      let before = op_counters c.env in
      Tracer.set_op tr id;
      let r = Tracer.with_span tr "op" (fun () -> f id) in
      let after = op_counters c.env in
      c.metric_deltas <- (id, Array.map2 ( - ) after before) :: c.metric_deltas;
      r

let replay_query c id q (a : Service.answer) =
  match (c.replay, c.tracer) with
  | Some r, Some tr ->
      Tracer.set_op tr id;
      let ctx = Service.ctx c.env.service in
      let epoch = Service.epoch c.env.service in
      let t0 = now () in
      let got = Tracer.with_span tr "replay" (fun () -> Replay.query r ~ctx ~epoch q a) in
      c.aux_s <- c.aux_s +. (now () -. t0);
      (match got with
      | None -> ()
      | Some rc ->
          let want = Replay.of_answer a in
          if rc <> want then
            c.replay_mismatches <-
              Printf.sprintf
                "op %d (%s): replay counted %d/%d/%d/%d, service %d/%d/%d/%d (support \
                 counted/checks/scans/pages)"
                id
                (Service.served_from_name a.Service.served_from)
                rc.Replay.support_counted rc.Replay.constraint_checks rc.Replay.scans
                rc.Replay.pages_read want.Replay.support_counted want.Replay.constraint_checks
                want.Replay.scans want.Replay.pages_read
              :: c.replay_mismatches);
      let sq = (Rewrite.simplify q).Rewrite.query in
      if not (List.mem sq c.answered) then c.answered <- c.answered @ [ sq ]
  | _ -> ()

let do_query c text =
  let epoch = Service.epoch c.env.service in
  let parsed = ref None in
  let result, op_id, t_parse, t_run =
    with_op c (fun id ->
        let t0 = now () in
        match span c "parser" (fun () -> Parser.parse text) with
        | exception Parser.Parse_error msg -> (Error msg, id, now () -. t0, 0.)
        | q ->
            parsed := Some q;
            let t1 = now () in
            let r = span c "service" (fun () -> Service.run c.env.service q) in
            let t2 = now () in
            (Result.map_error Service.error_to_string r, id, t1 -. t0, t2 -. t1))
  in
  let op =
    {
      id = op_id;
      kind = Query;
      text;
      epoch;
      measured = c.measuring;
      latency = t_parse +. t_run;
      run_s = t_run;
      append_s = 0.;
      service_s = 0.;
      ok = false;
      served = "error";
      digest = Oracle.empty;
      counts = [||];
    }
  in
  let op =
    match result with
    | Error msg ->
        Printf.printf "op %d failed: %s\n" op_id msg;
        op
    | Ok a ->
        Option.iter (fun q -> replay_query c op_id q a) !parsed;
        {
          op with
          service_s = a.Service.latency_seconds;
          ok = true;
          served = Service.served_from_name a.Service.served_from;
          digest = Oracle.of_pairs a.Service.pairs;
          counts =
            [|
              a.Service.support_counted;
              a.Service.constraint_checks;
              a.Service.scans;
              a.Service.pages_read;
              a.Service.n_pairs;
            |];
        }
  in
  c.ops <- op :: c.ops

(* traced ingest-live, after the service's seal: seal the same batch into
   a twin live source ([store.seal_ms]) and replay the maintenance pass on
   the shadow cache against the twin's delta, checking its counts *)
let replay_seal c id batch (lv : Service.live) =
  match (c.replay, c.tracer, c.twin) with
  | Some r, Some tr, Some twin ->
      Tracer.set_op tr id;
      let t0 = now () in
      Array.iter (Source.append_tx twin) batch;
      let old_ctx = { (Service.ctx c.env.service) with Exec.db = Source.db twin } in
      let io = Io_stats.create () in
      let t1 = now () in
      let delta = Tracer.with_span tr "store.twin_seal" (fun () -> Source.seal twin io) in
      c.twin_seal_s <- (now () -. t1) :: c.twin_seal_s;
      (match delta with
      | None -> c.replay_mismatches <- Printf.sprintf "op %d: twin sealed nothing" id :: c.replay_mismatches
      | Some delta ->
          let new_ctx = { old_ctx with Exec.db = Source.db twin } in
          let t2 = now () in
          let got =
            Tracer.with_span tr "replay.seal" (fun () ->
                Replay.seal r ~old_ctx ~new_ctx ~new_epoch:(Source.epoch twin) ~delta io
                  c.answered)
          in
          c.seal_replay_s <- (now () -. t2) :: c.seal_replay_s;
          if got <> Replay.of_live lv then
            c.replay_mismatches <-
              Printf.sprintf
                "op %d (seal): replay recounted/old scans/scans/pages %d/%d/%d/%d, service \
                 %d/%d/%d/%d"
                id got.Replay.recounted got.Replay.old_scans got.Replay.seal_scans
                got.Replay.seal_pages lv.Service.lv_recounted lv.Service.lv_old_scans
                lv.Service.lv_scans lv.Service.lv_pages_read
              :: c.replay_mismatches);
      c.aux_s <- c.aux_s +. (now () -. t0)
  | _ -> ()

let do_seal c batch =
  let result, op_id, t_append, t_seal =
    with_op c (fun id ->
        let t0 = now () in
        match
          span c "store.append" (fun () -> Array.iter (Service.ingest c.env.service) batch)
        with
        | exception e -> (Error (Printexc.to_string e), id, now () -. t0, 0.)
        | () -> (
            let t1 = now () in
            match span c "live.seal" (fun () -> Service.seal_live c.env.service) with
            | exception e -> (Error (Printexc.to_string e), id, t1 -. t0, now () -. t1)
            | None -> (Error "seal sealed nothing", id, t1 -. t0, now () -. t1)
            | Some lv -> (Ok lv, id, t1 -. t0, now () -. t1)))
  in
  (match result with Ok lv -> replay_seal c op_id batch lv | Error _ -> ());
  let op =
    {
      id = op_id;
      kind = Seal;
      text = "seal";
      epoch = Service.epoch c.env.service;
      measured = c.measuring;
      latency = t_append +. t_seal;
      run_s = t_seal;
      append_s = t_append;
      service_s = 0.;
      ok = false;
      served = "seal";
      digest = Oracle.empty;
      counts = [||];
    }
  in
  let op =
    match result with
    | Error msg ->
        Printf.printf "op %d (seal) failed: %s\n" op_id msg;
        op
    | Ok lv ->
        {
          op with
          ok = true;
          counts =
            [|
              lv.Service.lv_recounted;
              lv.Service.lv_old_scans;
              lv.Service.lv_scans;
              lv.Service.lv_pages_read;
              lv.Service.lv_sides_promoted;
              lv.Service.lv_answers_promoted;
              lv.Service.lv_sides_evicted + lv.Service.lv_answers_evicted;
            |];
        }
  in
  c.ops <- op :: c.ops

(* ------------------------------------------------------------------ *)
(* the workloads' scripts: a warm-up, then [n] units of work *)

let drive c n =
  match workload with
  | "refine" ->
      (* two windows per session, warm-up included *)
      let w = Gen.windows ~seed ~purpose:10L ~width:Gen.refine_width ~count:(2 * (n + 1)) in
      (* warm-up: the opening of a session, before measuring, so
         first-query effects (first-touch memory) are not measured *)
      do_query c (List.hd (Gen.refine_session w));
      c.measuring <- true;
      for _ = 1 to n do
        List.iter (do_query c) (Gen.refine_session w)
      done
  | "adhoc-store" ->
      let w = Gen.windows ~seed ~purpose:20L ~width:Gen.adhoc_width ~count:(2 * (n + 1)) in
      do_query c (Gen.adhoc_query w);
      c.measuring <- true;
      for _ = 1 to n do
        do_query c (Gen.adhoc_query w)
      done
  | _ ->
      let script = Gen.live_script Gen.live_session (Gen.stream seed 31L) in
      (* warm-up: the script mines cold once at epoch 0 *)
      List.iter (do_query c) script;
      c.measuring <- true;
      for b = 0 to n - 1 do
        do_seal c batches.(b);
        List.iter (do_query c) script
      done

let make_client env ~tracer ~replay =
  {
    env;
    tracer;
    replay;
    ops = [];
    next_id = 0;
    measuring = false;
    answered = [];
    replay_mismatches = [];
    metric_deltas = [];
    twin = None;
    twin_seal_s = [];
    seal_replay_s = [];
    aux_s = 0.;
  }

(* ------------------------------------------------------------------ *)
(* statistics and output *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* the highest of a fixed ladder of percentiles with at least ten samples
   above it; per mille, so that 100 samples give p90 exactly *)
let tail_permille n =
  List.fold_left
    (fun best pm -> if n * (1000 - pm) >= 10_000 then pm else best)
    500 [ 500; 900; 990; 999 ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit)
    metrics;
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let served_mix ops =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun o ->
      if o.kind = Query then
        Hashtbl.replace tbl o.served (1 + Option.value ~default:0 (Hashtbl.find_opt tbl o.served)))
    ops;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let mix_json mix =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) mix) ^ "}"

let print_meta ~extra ops =
  let c = config in
  Printf.printf
    "meta {\"workload\": %S, \"seed\": %Ld, \"seconds\": %d, \"trace\": %b, \"scale\": %S, \
     \"nproc\": %d, \"rev\": %S, \"config\": {\"domains\": %d, \"mine_domains\": %d, \
     \"cache_budget\": %d, \"kernel\": %S, \"condense\": %b, \"calibrate\": %b}, \
     \"served_from\": %s%s}\n"
    workload seed seconds trace scale_note nproc rev c.Service.domains c.Service.mine_domains
    c.Service.cache_budget
    (Cfq_mining.Counting.kernel_name c.Service.kernel)
    c.Service.condense c.Service.calibrate
    (mix_json (served_mix ops))
    extra

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.
let peak_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* what the process still holds after a full major collection: the data,
   the service's caches and the client's records *)
let live_heap_mb () =
  Gc.full_major ();
  words_mb (Gc.stat ()).Gc.live_words

(* Every answer against a cold oracle run on an in-memory twin of the
   transactions at the answer's epoch.  Runs of one process answer over
   the same data, so one oracle (and its memo) serves all of them. *)
let oracle = lazy (Oracle.create ~domains:nproc ())

let finish_checks ~label ops env =
  let oracle = Lazy.force oracle in
  let t0 = now () and runs0 = Oracle.cold_runs oracle in
  let answered = List.filter (fun o -> o.kind = Query && o.ok) ops in
  let mismatches = ref [] in
  List.iter
    (fun e ->
      let sets = Array.concat (env.base :: Array.to_list (Array.sub batches 0 e)) in
      Oracle.add_epoch oracle ~epoch:e sets env.info;
      let at_e = List.filter (fun o -> o.epoch = e) answered in
      Oracle.prepare oracle ~epoch:e (List.map (fun o -> o.text) at_e);
      List.iter
        (fun o ->
          Option.iter
            (fun m -> mismatches := m :: !mismatches)
            (Oracle.check oracle ~epoch:e o.text o.digest))
        at_e;
      Oracle.drop_epoch oracle ~epoch:e)
    (List.sort_uniq compare (List.map (fun o -> o.epoch) answered));
  Printf.printf "oracle (%s): %d answers checked against %d cold runs in %.1f s, %d mismatches\n"
    label (List.length answered)
    (Oracle.cold_runs oracle - runs0)
    (now () -. t0) (List.length !mismatches);
  List.iter (fun m -> Printf.printf "  MISMATCH %s\n" m) (List.rev !mismatches);
  !mismatches = []

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

let timed () =
  let env, setup_s, setup_reps = timed_setup () in
  let c = make_client env ~tracer:None ~replay:None in
  let t_phase = now () in
  drive c units;
  let phase_wall = now () -. t_phase in
  let heap = peak_heap_mb () in
  let live_heap = live_heap_mb () in
  env.close ();
  let ops = List.rev c.ops in
  let measured = List.filter (fun o -> o.measured) ops in
  let queries = List.filter (fun o -> o.kind = Query && o.ok) measured in
  let seals = List.filter (fun o -> o.kind = Seal && o.ok) measured in
  let lat = Array.of_list (List.map (fun o -> o.latency *. 1000.) queries) in
  Array.sort compare lat;
  let n = Array.length lat in
  let tail_pm = tail_permille n in
  let tail_p = float_of_int tail_pm /. 10. in
  let op_time = List.fold_left (fun acc o -> acc +. o.latency) 0. measured in
  let attempted = List.length ops and failed = List.length (List.filter (fun o -> not o.ok) ops) in
  let seal_ms = List.map (fun o -> o.run_s *. 1000.) seals in
  let appended = List.length seals * Gen.live_batch_tx in
  let write_s = List.fold_left (fun acc o -> acc +. o.latency) 0. seals in
  let correct = finish_checks ~label:"timed" ops env in
  rm_rf run_dir;
  print_meta ops
    ~extra:
      (Printf.sprintf
         ", \"peak_heap_mb\": %.3f, \"latency_ms_quantiles_0_25_50_75_90_100\": [%s], \
          \"setup_reps\": %d, \"queries\": %d, \"tail_percentile\": %g, \
          \"tail_samples_beyond\": %d, \"phase_wall_s\": %.3f, \"op_time_s\": %.3f, \
          \"failed_frac\": %g, \"seals\": %d, \"seal_p50_ms\": %.3f, \"ingest_tx_per_s\": %.1f"
         heap
         (String.concat ", "
            (List.map (fun p -> Printf.sprintf "%.3f" (percentile lat p)) [ 0.; 25.; 50.; 75.; 90.; 100. ]))
         setup_reps n tail_p
         (n * (1000 - tail_pm) / 1000)
         phase_wall op_time
         (float_of_int failed /. float_of_int (max 1 attempted))
         (List.length seals) (median seal_ms)
         (if write_s > 0. then float_of_int appended /. write_s else 0.));
  Printf.printf "%s seed %Ld: %d queries, %d seals, %s\n" workload seed n (List.length seals)
    (if correct then "all answers match the oracle" else "ORACLE MISMATCH");
  if workload = "ingest-live" then
    Printf.printf "  %-34s %14.6g ms\n  %-34s %14.6g 1/s\n" "seal_p50_ms" (median seal_ms)
      "ingest_tx_per_s"
      (if write_s > 0. then float_of_int appended /. write_s else 0.);
  Printf.printf "  %-34s %14.6g ratio\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_result ~correct ~attempted ~failed
    [
      ("setup_s", setup_s, "s");
      ("query_p50_ms", percentile lat 50., "ms");
      ("query_tail_ms", percentile lat tail_p, "ms");
      ("queries_per_s", float_of_int n /. op_time, "1/s");
      ("live_heap_mb", live_heap, "MiB");
    ];
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics *)

let fsyncs stores = Array.fold_left (fun acc s -> acc + snd (Store.wal_counters s)) 0 stores

type fixed = {
  client : client;
  f_ops : op list;
  wall : float;  (** client seconds, replay and twin-store work excluded *)
  pool : int * int * int;  (** pool hits, misses, evictions of the service's ops *)
  shard_io : (int * int) array;  (** per shard: scans, pages of the service's ops *)
  wal_fsyncs : int;
  scan_ms : float * float;  (** one bare scan, then a second one *)
  final : Metrics.snapshot;
}

(* one run of the fixed script; [traced] adds spans, per-op counter
   snapshots, the replay and (ingest-live) the twin store *)
let fixed_run ~traced =
  let env = setup (if traced then 2 else 1) in
  let tracer = if traced then Some (Tracer.create ()) else None in
  (* the replay's counting domains exist in untraced runs too, so the
     overhead comparison runs the service beside the same domains *)
  let pool = Cfq_exec_pool.Pool.create ~domains:nproc () in
  let replay =
    Option.map
      (fun tracer -> Replay.create ~tracer ~par:(Cfq_mining.Counting.par ~pool nproc) config)
      tracer
  in
  let c = make_client env ~tracer ~replay in
  let twin_store =
    match env.store_path with
    | Some path when traced ->
        let twin_path = path ^ ".twin" in
        Store.build twin_path env.base;
        let s = Store.open_ twin_path in
        c.twin <- Some (Source.of_store s);
        Some s
    | _ -> None
  in
  let before = op_counters env and fsync0 = fsyncs env.stores in
  let t0 = now () in
  drive c traced_units;
  let wall = now () -. t0 -. c.aux_s in
  let after = op_counters env and fsync1 = fsyncs env.stores in
  (* untraced, the whole-run difference is the service's; traced, only the
     per-op deltas are (the replay reads the same pools and shards) *)
  let charged =
    if traced then
      List.fold_left (fun acc (_, d) -> Array.map2 ( + ) acc d)
        (Array.make (Array.length before) 0)
        c.metric_deltas
    else Array.map2 ( - ) after before
  in
  let scan_io = Io_stats.create () in
  let scan () =
    let t = now () in
    Tracer.maybe tracer "txdb.scan" (fun () ->
        Tx_db.iter_scan (Service.ctx env.service).Exec.db scan_io ignore);
    (now () -. t) *. 1000.
  in
  let scan_cold = scan () in
  let scan_warm = scan () in
  let final = Service.metrics env.service in
  let n_shards = Array.length (Tx_db.shard_io (Service.ctx env.service).Exec.db) in
  Option.iter Store.close twin_store;
  env.close ();
  Cfq_exec_pool.Pool.shutdown pool;
  {
    client = c;
    f_ops = List.rev c.ops;
    wall;
    pool = (charged.(6), charged.(7), charged.(8));
    shard_io =
      Array.init (min 2 n_shards) (fun k -> (charged.(9 + (2 * k)), charged.(10 + (2 * k))));
    wal_fsyncs = fsync1 - fsync0;
    scan_ms = (scan_cold, scan_warm);
    final;
  }

(* Per served class (cold, subsumed, answer-cache, seal): operations, mean
   client milliseconds, and mean milliseconds per operation in each span
   name recorded for those operations (the client's and the replay's). *)
let by_class tr ops =
  let class_of = Hashtbl.create 256 in
  List.iter (fun o -> Hashtbl.replace class_of o.id o.served) ops;
  let per = Hashtbl.create 8 in
  List.iter
    (fun (sp : Tracer.span) ->
      match Hashtbl.find_opt class_of sp.Tracer.op with
      | None -> ()
      | Some cls ->
          let tbl =
            match Hashtbl.find_opt per cls with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 16 in
                Hashtbl.replace per cls t;
                t
          in
          let d = sp.Tracer.t1 -. sp.Tracer.t0 in
          Hashtbl.replace tbl sp.Tracer.name
            (d +. Option.value ~default:0. (Hashtbl.find_opt tbl sp.Tracer.name)))
    (Tracer.spans tr);
  let classes = List.sort_uniq compare (List.map (fun o -> o.served) ops) in
  let entry cls =
    let n = List.length (List.filter (fun o -> o.served = cls) ops) in
    let tbl = Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt per cls) in
    let spans =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      |> List.map (fun (k, v) -> Printf.sprintf "%S: %.4f" k (v /. float_of_int n *. 1000.))
    in
    Printf.sprintf "%S: {\"n\": %d, \"ms_per_op\": {%s}}" cls n (String.concat ", " spans)
  in
  "{" ^ String.concat ", " (List.map entry classes) ^ "}"

(* one line per operation after the spans: what it was, what it returned
   and the counters it was charged with *)
let append_op_lines path c =
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  List.iter
    (fun o ->
      let charged =
        match List.assoc_opt o.id c.metric_deltas with
        | Some d ->
            String.concat ", "
              (Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%S: %d" op_counter_names.(i) v) d))
        | None -> ""
      in
      Printf.fprintf oc
        "{\"op\": %d, \"kind\": %S, \"epoch\": %d, \"served\": %S, \"latency_us\": %.1f, \
         \"counts\": [%s], \"charged\": {%s}}\n"
        o.id
        (match o.kind with Query -> "query" | Seal -> "seal")
        o.epoch o.served (o.latency *. 1e6)
        (String.concat ", " (Array.to_list (Array.map string_of_int o.counts)))
        charged)
    (List.rev c.ops);
  close_out oc

let traced () =
  (* the first untraced run warms the process (heap growth, first-touch
     pages) and is the exact-count reference; the untraced run after the
     traced one is the overhead reference *)
  let a = fixed_run ~traced:false in
  let b = fixed_run ~traced:true in
  let a2 = fixed_run ~traced:false in
  let c = b.client and ops = b.f_ops and m = b.final in
  let hits, misses, evictions = b.pool in
  let scan_cold, scan_warm = b.scan_ms in
  let wall_a = a2.wall and wall_b = b.wall in
  let heap = peak_heap_mb () in
  let tr = Option.get c.tracer and r = Option.get c.replay in
  (* exact-count check: both runs executed the same script from the same
     seed, so every deterministic counter must agree op by op *)
  let key o = (o.kind, o.text, o.epoch, o.ok, o.served, o.counts, o.digest) in
  let same x y =
    List.length x.f_ops = List.length y.f_ops
    && List.for_all2 (fun o p -> key o = key p) x.f_ops y.f_ops
  in
  let exact_ok = same a b && same a a2 in
  let pool_exact = a.pool = b.pool && a.pool = a2.pool in
  let shard_exact = a.shard_io = b.shard_io && a.shard_io = a2.shard_io in
  let correct_a = finish_checks ~label:"untraced script" a.f_ops a.client.env in
  let correct_b = finish_checks ~label:"traced script" ops c.env in
  rm_rf run_dir;
  let sum = Tracer.summary tr in
  let mean_ms name =
    match Hashtbl.find_opt sum name with
    | Some (n, tot, _) when n > 0 -> tot /. float_of_int n *. 1000.
    | _ -> 0.
  in
  let total_s name = match Hashtbl.find_opt sum name with Some (_, tot, _) -> tot | None -> 0. in
  let self_s name = match Hashtbl.find_opt sum name with Some (_, _, s) -> s | None -> 0. in
  let queries = List.filter (fun o -> o.kind = Query && o.ok) ops in
  let seals = List.filter (fun o -> o.kind = Seal && o.ok) ops in
  let nq = float_of_int (max 1 (List.length queries)) in
  let sumq f = List.fold_left (fun acc o -> acc + f o) 0 queries in
  let sums f = List.fold_left (fun acc o -> acc + f o) 0 seals in
  let meanq f = List.fold_left (fun acc o -> acc +. f o) 0. queries /. nq in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let fi = float_of_int in
  let rc = r.Replay.counts in
  let seal_ms = List.map (fun o -> o.run_s *. 1000.) seals in
  let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. fi (List.length l) in
  let twin_seal_ms = mean (List.map (fun s -> s *. 1000.) c.twin_seal_s) in
  let appended = List.length seals * Gen.live_batch_tx in
  let write_s = List.fold_left (fun acc o -> acc +. o.latency) 0. seals in
  let shard_pages = Array.map snd b.shard_io in
  let skew =
    if Array.length shard_pages = 0 then 0.
    else
      let mx = Array.fold_left max 0 shard_pages and tot = Array.fold_left ( + ) 0 shard_pages in
      if tot = 0 then 0. else fi mx /. (fi tot /. fi (Array.length shard_pages))
  in
  let attempted = List.length ops and failed = List.length (List.filter (fun o -> not o.ok) ops) in
  let replay_s = total_s "replay" in
  let metrics =
    [
      ("parser.parse_us", mean_ms "parser" *. 1000., "us");
      ("optimizer.plan_us", mean_ms "optimizer" *. 1000., "us");
      ("service.run_ms", meanq (fun o -> o.run_s) *. 1000., "ms");
      ("service.queue_wait_ms", meanq (fun o -> o.run_s -. o.service_s) *. 1000., "ms");
      ("service.answer_hit_ratio", ratio m.Metrics.answer_hits m.Metrics.queries, "ratio");
      ( "service.subsumption_hit_ratio",
        ratio m.Metrics.subsumption_hits (m.Metrics.subsumption_hits + m.Metrics.sides_mined),
        "ratio" );
      ("service.sides_mined", fi m.Metrics.sides_mined, "count");
      ("service.evictions", fi m.Metrics.evictions, "count");
      ("service.cache_bytes", fi (m.Metrics.answer_bytes + m.Metrics.side_bytes), "bytes");
      ("service.inline_runs", fi m.Metrics.inline_runs, "count");
      ("condensed.reconstructions", fi m.Metrics.reconstructions, "count");
      ("condensed.ratio", ratio m.Metrics.cond_raw_bytes m.Metrics.cond_bytes, "ratio");
      ("condensed.to_frequent_ms", mean_ms "condensed.to_frequent", "ms");
      ("condensed.of_frequent_ms", mean_ms "condensed.of_frequent", "ms");
      ("mining.support_counted", fi (sumq (fun o -> o.counts.(0))), "count");
      ("mining.candidates", fi rc.Replay.candidates, "count");
      ("mining.frequent", fi rc.Replay.frequent, "count");
      ("mining.useful_ratio", ratio rc.Replay.frequent (sumq (fun o -> o.counts.(0))), "ratio");
      ("mining.passes.trie", fi rc.Replay.pass_trie, "count");
      ("mining.passes.direct2", fi rc.Replay.pass_direct2, "count");
      ("mining.passes.vertical", fi rc.Replay.pass_vertical, "count");
      ("mining.candgen_ms", mean_ms "mining.candgen", "ms");
      ("mining.count_ms", mean_ms "mining.count", "ms");
      ("mining.absorb_ms", mean_ms "mining.absorb", "ms");
      ( "mining.self_ms",
        (match Hashtbl.find_opt sum "mining" with
        | Some (n, _, _) when n > 0 -> self_s "mining" /. fi n *. 1000.
        | _ -> 0.),
        "ms" );
      ("constr.checks", fi rc.Replay.one_var_checks, "count");
      ("constr.filter_ms", mean_ms "constr.filter", "ms");
      ("pairs.form_ms", mean_ms "pairs", "ms");
      ("pairs.checks", fi rc.Replay.pair_checks, "count");
      ("pairs.n_pairs", fi rc.Replay.n_pairs, "count");
      ("pairs.yield", ratio rc.Replay.n_pairs rc.Replay.pair_checks, "ratio");
      ("txdb.scans", fi (sumq (fun o -> o.counts.(2))), "count");
      ("txdb.pages_read", fi (sumq (fun o -> o.counts.(3))), "count");
      ("txdb.tuples_read", fi rc.Replay.tuples_read, "count");
      ("txdb.scan_ms", scan_cold, "ms");
      ("txdb.scan_warm_ms", scan_warm, "ms");
      ("store.pool_hits", fi hits, "count");
      ("store.pool_misses", fi misses, "count");
      ("store.pool_evictions", fi evictions, "count");
      ("store.pool_hit_ratio", ratio hits (hits + misses), "ratio");
      ( "store.append_us",
        (if appended = 0 then 0.
         else List.fold_left (fun acc o -> acc +. o.append_s) 0. seals /. fi appended *. 1e6),
        "us" );
      ("store.wal_fsyncs", fi b.wal_fsyncs, "count");
      ("store.seal_ms", twin_seal_ms, "ms");
      ("shard.scans", fi (Array.fold_left (fun acc (sc, _) -> acc + sc) 0 b.shard_io), "count");
      ("shard.pages_read.skew", skew, "ratio");
      ("shard.failovers", fi m.Metrics.failovers, "count");
      ("live.recounted", fi (sums (fun o -> o.counts.(0))), "count");
      ("live.old_scans", fi (sums (fun o -> o.counts.(1))), "count");
      ("live.scans", fi (sums (fun o -> o.counts.(2))), "count");
      ("live.pages_read", fi (sums (fun o -> o.counts.(3))), "count");
      ("live.sides_promoted", fi (sums (fun o -> o.counts.(4))), "count");
      ("live.answers_promoted", fi (sums (fun o -> o.counts.(5))), "count");
      ("live.evicted", fi (sums (fun o -> o.counts.(6))), "count");
      ("live.self_ms", (if seals = [] then 0. else mean seal_ms -. twin_seal_ms), "ms");
      ("live.promote_ms", total_s "live.promote" *. 1000. /. fi (max 1 (List.length seals)), "ms");
      ("live.rederive_ms", total_s "live.rederive" *. 1000. /. fi (max 1 (List.length seals)), "ms");
      ( "live.condensed_ms",
        Tracer.total_under tr ~ancestor:"replay.seal"
          [ "condensed.to_frequent"; "condensed.of_frequent" ]
        *. 1000.
        /. fi (max 1 (List.length seals)),
        "ms" );
      ("live.replay_seal_ms", mean (List.map (fun s -> s *. 1000.) c.seal_replay_s), "ms");
      ("seal_p50_ms", median seal_ms, "ms");
      ("ingest_tx_per_s", (if write_s > 0. then fi appended /. write_s else 0.), "1/s");
      ("failed_frac", ratio failed attempted, "ratio");
      ("trace.overhead_ms", (wall_b -. wall_a) *. 1000., "ms");
      ("trace.overhead_frac", (if wall_a > 0. then (wall_b -. wall_a) /. wall_a else 0.), "ratio");
      ("trace.replay_ms", replay_s *. 1000., "ms");
      ("trace.unreplayed", fi rc.Replay.unreplayed, "count");
      ("trace.peak_heap_mb", heap, "MiB");
    ]
  in
  mkdir_p out_root;
  let trace_path =
    Filename.concat out_root (Printf.sprintf "trace-%s-%Ld.jsonl" workload seed)
  in
  Tracer.write tr trace_path;
  append_op_lines trace_path c;
  let non_exact =
    (if pool_exact then [] else [ "store.pool_hits"; "store.pool_misses"; "store.pool_evictions" ])
    @ if shard_exact then [] else [ "shard.scans"; "shard.pages_read.skew" ]
  in
  print_meta ops
    ~extra:
      (Printf.sprintf
         ", \"by_class\": %s, \"script_units\": %d, \"ops\": %d, \"untraced_wall_s\": %.3f, \"traced_wall_s\": \
          %.3f, \"exact_counts_repeat\": %b, \"non_exact\": [%s], \"replay_mismatches\": %d, \
          \"trace_file\": %S"
         (by_class tr ops) traced_units (List.length ops) wall_a wall_b exact_ok
         (String.concat ", " (List.map (Printf.sprintf "%S") non_exact))
         (List.length c.replay_mismatches) trace_path);
  List.iter (fun m -> Printf.printf "  REPLAY MISMATCH %s\n" m) (List.rev c.replay_mismatches);
  let correct = correct_a && correct_b && exact_ok && c.replay_mismatches = [] in
  print_result ~correct ~attempted ~failed metrics;
  if not (correct_a && correct_b) then exit 1;
  if not exact_ok then fail_check "exact counters differ between two runs of seed %Ld" seed;
  if c.replay_mismatches <> [] then
    fail_check "replay counters differ from the service's on %d queries"
      (List.length c.replay_mismatches)

let () = if trace then traced () else timed ()

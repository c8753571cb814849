open Cfq_itembase
open Cfq_txdb
open Cfq_quest
open Cfq_core

type t = {
  mutable ctx : Exec.ctx option;
  mutable strategy : Plan.strategy;
  mutable min_conf : float;
  mutable mine_domains : int;
  mutable kernel : Cfq_mining.Counting.kernel;
  mutable calibrate : bool;
  mutable condense : bool;
  mutable last : Exec.result option;
  mutable last_rules : Cfq_rules.Rule.t list;
  mutable service : Cfq_service.Service.t option;
  mutable store : Cfq_store.Store.t option;
  mutable shard : Cfq_shard.Sharded.t option;
  mutable replicas : int;
  mutable last_live : Cfq_service.Service.live option;
}

type response = {
  output : string;
  quit : bool;
}

let create ?ctx () =
  {
    ctx;
    strategy = Plan.Optimized;
    min_conf = 0.5;
    mine_domains = 1;
    kernel = Cfq_mining.Counting.Trie;
    calibrate = true;
    condense = true;
    last = None;
    last_rules = [];
    service = None;
    store = None;
    shard = None;
    replicas = 1;
    last_live = None;
  }

let par_of t = Cfq_mining.Counting.par (max 1 t.mine_domains)

(* the trie default stays the plain legacy path (no session, no note) *)
let kernel_of t =
  if t.kernel = Cfq_mining.Counting.Trie then None else Some t.kernel

(* the serving layer is bound to one database: (re)create it lazily and
   retire it when the session attaches a different context *)
let drop_service t =
  match t.service with
  | None -> ()
  | Some s ->
      Cfq_service.Service.shutdown s;
      t.service <- None

(* a persistent store backs the current ctx's database: close it only
   after the session has moved to a different context *)
let drop_store t =
  (match t.store with
  | None -> ()
  | Some s ->
      (try Cfq_store.Store.close s with _ -> ());
      t.store <- None);
  match t.shard with
  | None -> ()
  | Some s ->
      (try Cfq_shard.Sharded.close s with _ -> ());
      t.shard <- None

let service_for t ctx =
  match t.service with
  | Some s when Cfq_service.Service.ctx s == ctx -> s
  | _ ->
      drop_service t;
      let s =
        Cfq_service.Service.create
          ~config:
            {
              Cfq_service.Service.default_config with
              kernel = t.kernel;
              calibrate = t.calibrate;
              condense = t.condense;
            }
          ctx
      in
      t.service <- Some s;
      s

let say fmt = Format.kasprintf (fun output -> { output; quit = false }) fmt

let help_text =
  String.concat "\n"
    [
      "commands:";
      "  load <tx.fimi> [<items.csv>]   attach a database (and itemInfo table)";
      "  gen <n_tx> <n_items> [seed]    generate a synthetic Quest database";
      "  open <store> [<cache_pages>] [shards=N]";
      "                                 attach a persistent store (buffer-pooled);";
      "                                 a manifest opens sharded, shards=N splits a";
      "                                 plain segment into a sharded twin first";
      "  save <store>                   write the attached database to a store";
      "  ingest <store> <tx.fimi>       append transactions to a store and seal;";
      "                                 a running service over that store is kept";
      "                                 live (caches promoted, not cold-started)";
      "  live                           live-ingestion status: epoch, pending";
      "                                 appends, last seal's maintenance summary";
      "  verify                         re-read the attached store from disk and";
      "                                 report per-replica page health";
      "  scrub                          verify + quarantine bad replicas, rebuild";
      "                                 them from healthy siblings, re-admit";
      "  set strategy <name>            apriori+ | cap | optimized | sequential | fm";
      "  set minconf <float>            rule confidence threshold";
      "  set domains <n>                counting domains per scan (1 = sequential)";
      "  set kernel <name>              counting kernel: auto | trie | direct2 | vertical";
      "  set calibrate <on|off>         feed measured pass timings into the Auto";
      "                                 planner's cost model (on; off = fixed priors)";
      "  set condense <on|off>          store the service's cached collections and";
      "                                 answers closed-set condensed (on); answers";
      "                                 are byte-identical either way";
      "  set replicas <r>               replicas per shard for the next sharded split";
      "  set fault <p> [<cp> [<seed>]] [shard=K [replica=J]]";
      "                                 inject faults: transient-p, corrupt-p, seed;";
      "                                 shard=K pins the injector to one shard,";
      "                                 replica=J to one physical replica of it";
      "  set fault off [shard=K [replica=J]]";
      "                                 remove fault injection";
      "  explain <query>                show the optimizer's plan, run nothing";
      "  advise <query>                 probe the data, recommend a strategy";
      "  run <query>                    execute and summarise";
      "  pairs <n>                      show n answer pairs of the last run";
      "  rules <query>                  two-phase run: rules with metrics";
      "  export pairs <file.csv>        write the last run's pairs to CSV";
      "  export rules <file.csv>        write the last rules to CSV";
      "  profile                        lattice profile of the last run";
      "  serve <queries.txt>            run a batch file through the caching service";
      "  cachestats                     service cache / queue / ccc metrics";
      "  stats                          database statistics";
      "  help | quit";
    ]

let strategies =
  [
    ("apriori+", Plan.Apriori_plus);
    ("cap", Plan.Cap_one_var);
    ("optimized", Plan.Optimized);
    ("sequential", Plan.Sequential_t_first);
    ("fm", Plan.Full_materialize);
  ]

let with_ctx t f =
  match t.ctx with
  | Some ctx -> f ctx
  | None -> say "no database attached; use 'load' or 'gen' first"

let parse_query t ctx text f =
  match Parser.parse_result text with
  | Error msg -> say "parse error: %s" msg
  | Ok q -> (
      match Validate.check ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info q with
      | Error errors ->
          say "%s"
            (String.concat "\n"
               (List.map (Format.asprintf "error: %a" Validate.pp_error) errors))
      | Ok () -> f (t, q))

let do_load t path info_path =
  match Cfq_data.Fimi.read path with
  | exception Cfq_data.Fimi.Bad_format msg -> say "load failed: %s" msg
  | exception Sys_error msg -> say "load failed: %s" msg
  | db -> (
      let universe_size =
        match Cfq_data.Fimi.max_item db with Some m -> m + 1 | None -> 1
      in
      let info_result =
        match info_path with
        | None -> Ok (Item_info.create ~universe_size)
        | Some p -> (
            match Cfq_data.Item_csv.read p ~universe_size with
            | info -> Ok info
            | exception Cfq_data.Item_csv.Bad_format msg -> Error msg
            | exception Sys_error msg -> Error msg)
      in
      match info_result with
      | Error msg -> say "load failed: %s" msg
      | Ok info ->
          t.ctx <- Some (Exec.context db info);
          t.last <- None;
          drop_service t;
          drop_store t;
          say "loaded %d transactions over %d items" (Tx_db.size db) universe_size)

let do_gen t n_tx n_items seed =
  let rng = Splitmix.create ~seed:(Int64.of_int seed) in
  let params = { (Quest_gen.scaled n_tx) with Quest_gen.n_items = n_items } in
  let db = Quest_gen.generate rng params in
  let prices = Item_gen.uniform_prices rng ~n:n_items ~lo:0. ~hi:1000. in
  let types = Array.init n_items (fun _ -> float_of_int (Splitmix.int rng 20)) in
  t.ctx <- Some (Exec.context db (Item_gen.item_info ~prices ~types ()));
  t.last <- None;
  drop_service t;
  drop_store t;
  say "generated %d transactions over %d items (avg length %.1f; Price, Type attributes)"
    (Tx_db.size db) n_items (Tx_db.avg_tx_len db)

let info_csv_path store_path = store_path ^ ".info.csv"

(* attach an already-built sharded store: the manifest lives at [mpath],
   the itemInfo table beside it or beside the original plain segment the
   shards were split from *)
let do_open_sharded t mpath cache_pages ~info_candidates =
  match Cfq_shard.Sharded.open_ ?cache_pages mpath with
  | exception Cfq_shard.Manifest.Bad_manifest msg -> say "open failed: %s" msg
  | exception Cfq_store.Segment.Bad_segment msg -> say "open failed: %s" msg
  | exception Unix.Unix_error (e, _, _) ->
      say "open failed: %s: %s" mpath (Unix.error_message e)
  | exception Sys_error msg -> say "open failed: %s" msg
  | sh -> (
      let universe_size = max 1 (Cfq_shard.Sharded.universe_size sh) in
      let info_result =
        match List.find_opt Sys.file_exists info_candidates with
        | None -> Ok (Item_info.create ~universe_size)
        | Some p -> (
            match Cfq_data.Item_csv.read p ~universe_size with
            | info -> Ok info
            | exception Cfq_data.Item_csv.Bad_format msg -> Error msg
            | exception Sys_error msg -> Error msg)
      in
      match info_result with
      | Error msg ->
          Cfq_shard.Sharded.close sh;
          say "open failed: %s" msg
      | Ok info ->
          t.ctx <- Some (Exec.context (Cfq_shard.Sharded.db sh) info);
          t.last <- None;
          drop_service t;
          drop_store t;
          t.shard <- Some sh;
          let m = Cfq_shard.Sharded.manifest sh in
          let r = Cfq_shard.Sharded.replicas sh in
          say "opened %s: %d shards (%s)%s, %d transactions, %d pages, generation %d"
            mpath
            (Cfq_shard.Sharded.shard_count sh)
            (Cfq_shard.Manifest.partition_name m.Cfq_shard.Manifest.partition)
            (if r > 1 then Printf.sprintf " x %d replicas" r else "")
            (Cfq_shard.Sharded.size sh) (Cfq_shard.Sharded.pages sh)
            m.Cfq_shard.Manifest.generation)

let do_open t path cache_pages =
  match Cfq_store.Store.open_ ?cache_pages path with
  | exception Cfq_store.Segment.Bad_segment msg -> say "open failed: %s" msg
  | exception Unix.Unix_error (e, _, _) ->
      say "open failed: %s: %s" path (Unix.error_message e)
  | exception Sys_error msg -> say "open failed: %s" msg
  | store -> (
      let universe_size = max 1 (Cfq_store.Store.universe_size store) in
      let info_path = info_csv_path path in
      let info_result =
        if not (Sys.file_exists info_path) then Ok (Item_info.create ~universe_size)
        else
          match Cfq_data.Item_csv.read info_path ~universe_size with
          | info -> Ok info
          | exception Cfq_data.Item_csv.Bad_format msg -> Error msg
          | exception Sys_error msg -> Error msg
      in
      match info_result with
      | Error msg ->
          Cfq_store.Store.close store;
          say "open failed: %s" msg
      | Ok info ->
          t.ctx <- Some (Exec.context (Cfq_store.Store.db store) info);
          t.last <- None;
          drop_service t;
          drop_store t;
          t.store <- Some store;
          let r = Cfq_store.Store.last_recovery store in
          say "opened %s: %d transactions, %d pages, cache %d pages%s" path
            (Cfq_store.Store.size store) (Cfq_store.Store.pages store)
            (Cfq_store.Store.cache_pages store)
            (if r.Cfq_store.Store.replayed > 0 || r.Cfq_store.Store.truncated_bytes > 0
             then
               Printf.sprintf " (recovered %d WAL records, dropped %d torn bytes)"
                 r.Cfq_store.Store.replayed r.Cfq_store.Store.truncated_bytes
             else ""))

(* 'open' front door: a manifest at [path] opens sharded as-is; a plain
   segment with [shards=N] (N>1) is split once into a sharded twin at
   [path.sharded] (reused on later opens); otherwise the plain store *)
let do_open_any t path cache_pages shards =
  if Cfq_shard.Manifest.is_manifest path then
    do_open_sharded t path cache_pages ~info_candidates:[ info_csv_path path ]
  else if shards > 1 then begin
    let mpath = path ^ ".sharded" in
    match
      if not (Cfq_shard.Manifest.is_manifest mpath) then
        Cfq_shard.Sharded.build_from_segment ~replicas:t.replicas ~shards ~src:path
          mpath
    with
    | exception Cfq_store.Segment.Bad_segment msg -> say "open failed: %s" msg
    | exception Cfq_shard.Manifest.Bad_manifest msg -> say "open failed: %s" msg
    | exception Unix.Unix_error (e, _, _) ->
        say "open failed: %s: %s" path (Unix.error_message e)
    | exception Sys_error msg -> say "open failed: %s" msg
    | () ->
        do_open_sharded t mpath cache_pages
          ~info_candidates:[ info_csv_path mpath; info_csv_path path ]
  end
  else do_open t path cache_pages

let do_save ctx path =
  match
    Cfq_store.Store.save_db path ctx.Exec.db;
    Cfq_data.Item_csv.write (info_csv_path path) ctx.Exec.s_info
  with
  | () ->
      say "wrote %d transactions to %s (+ %s)" (Tx_db.size ctx.Exec.db) path
        (info_csv_path path)
  | exception Unix.Unix_error (e, _, _) ->
      say "save failed: %s: %s" path (Unix.error_message e)
  | exception Sys_error msg -> say "save failed: %s" msg

let do_ingest t store_path fimi_path =
  match Cfq_data.Fimi.read fimi_path with
  | exception Cfq_data.Fimi.Bad_format msg -> say "ingest failed: %s" msg
  | exception Sys_error msg -> say "ingest failed: %s" msg
  | src -> (
      (* appends are group-commit buffered: a crash mid-loop may lose
         the last partial group, but nothing is acknowledged until the
         seal below, which flushes and folds everything durably *)
      let ingest store =
        for i = 0 to Tx_db.size src - 1 do
          Cfq_store.Store.append_tx store (Tx_db.get src i).Transaction.items
        done;
        ignore (Cfq_store.Store.seal store)
      in
      match t.store with
      | Some store when Cfq_store.Store.path store = store_path -> (
          let live_service =
            match (t.service, t.ctx) with
            | Some s, Some c when Cfq_service.Service.ctx s == c -> Some s
            | _ -> None
          in
          match live_service with
          | Some service -> (
              (* the service stays up across the seal: appends go through
                 its live source, and the seal's maintenance pass promotes
                 the warm caches to the new epoch instead of dropping them
                 (in-flight queries finish on the still-readable pre-seal
                 snapshot) *)
              (match Cfq_service.Service.live_source service with
              | Some _ -> ()
              | None ->
                  Cfq_service.Service.attach_source service
                    (Cfq_live.Source.of_store store));
              for i = 0 to Tx_db.size src - 1 do
                Cfq_service.Service.ingest service (Tx_db.get src i).Transaction.items
              done;
              match Cfq_service.Service.seal_live service with
              | None -> say "nothing to ingest: %s holds no transactions" fimi_path
              | Some lv ->
                  t.last_live <- Some lv;
                  t.ctx <- Some (Cfq_service.Service.ctx service);
                  t.last <- None;
                  say
                    "ingested %d transactions into %s (now %d total)@\n\
                     epoch %d: %d sides + %d answers promoted, %d + %d \
                     evicted; %d candidates recounted (%d old-db scans), %d \
                     maintenance pages"
                    (Tx_db.size src) store_path
                    (Cfq_store.Store.size store)
                    lv.Cfq_service.Service.lv_epoch
                    lv.Cfq_service.Service.lv_sides_promoted
                    lv.Cfq_service.Service.lv_answers_promoted
                    lv.Cfq_service.Service.lv_sides_evicted
                    lv.Cfq_service.Service.lv_answers_evicted
                    lv.Cfq_service.Service.lv_recounted
                    lv.Cfq_service.Service.lv_old_scans
                    lv.Cfq_service.Service.lv_pages_read)
          | None ->
              (* no service over this store: retire any stale one, seal, and
                 rebuild the context around the replaced db handle *)
              drop_service t;
              ingest store;
              (match t.ctx with
              | Some ctx ->
                  t.ctx <-
                    Some (Exec.context (Cfq_store.Store.db store) ctx.Exec.s_info)
              | None -> ());
              t.last <- None;
              say "ingested %d transactions into %s (now %d total)"
                (Tx_db.size src) store_path
                (Cfq_store.Store.size store))
      | _ -> (
          match Cfq_store.Store.open_ store_path with
          | exception Cfq_store.Segment.Bad_segment msg -> say "ingest failed: %s" msg
          | exception Unix.Unix_error (e, _, _) ->
              say "ingest failed: %s: %s" store_path (Unix.error_message e)
          | exception Sys_error msg -> say "ingest failed: %s" msg
          | store ->
              ingest store;
              let total = Cfq_store.Store.size store in
              Cfq_store.Store.close store;
              say "ingested %d transactions into %s (now %d total)" (Tx_db.size src)
                store_path total))

let do_live t =
  match t.service with
  | None ->
      say
        "no service running; 'serve <queries.txt>' starts one, and 'ingest' \
         into the attached store keeps it live across seals"
  | Some s ->
      let source_line =
        match Cfq_service.Service.live_source s with
        | None -> "no ingestion source attached (the first 'ingest' attaches one)"
        | Some src ->
            Printf.sprintf "source: %s, %d transactions sealed, %d pending"
              (Cfq_live.Source.backend_name src)
              (Cfq_live.Source.size src)
              (Cfq_live.Source.pending src)
      in
      let seal_line =
        match t.last_live with
        | None -> "no seal maintained yet"
        | Some lv ->
            Printf.sprintf
              "last seal (epoch %d): %d txs folded; %d sides + %d answers \
               promoted, %d + %d evicted; %d candidates recounted (%d old-db \
               scans), %d scans / %d pages of maintenance I/O"
              lv.Cfq_service.Service.lv_epoch lv.Cfq_service.Service.lv_sealed
              lv.Cfq_service.Service.lv_sides_promoted
              lv.Cfq_service.Service.lv_answers_promoted
              lv.Cfq_service.Service.lv_sides_evicted
              lv.Cfq_service.Service.lv_answers_evicted
              lv.Cfq_service.Service.lv_recounted
              lv.Cfq_service.Service.lv_old_scans
              lv.Cfq_service.Service.lv_scans
              lv.Cfq_service.Service.lv_pages_read
      in
      say "epoch %d@\n%s@\n%s" (Cfq_service.Service.epoch s) source_line seal_line

let do_run t ctx q =
  match
    Exec.run_result ~strategy:t.strategy ~collect_pairs:true ~par:(par_of t)
      ?kernel:(kernel_of t) ~calibrate:t.calibrate ctx q
  with
  | Ok r ->
      t.last <- Some r;
      say "%s" (Explain.result_to_string r)
  | Error e -> say "run failed: %s" (Cfq_error.to_string e)

let fault_usage =
  "usage: set fault <transient-p> [<corrupt-p> [<seed>]] [shard=K [replica=J]] | \
   set fault off [shard=K [replica=J]]"

(* the probability/seed words of 'set fault', shared by every target:
   Ok (None, _) = off, Ok (Some config, description) = inject *)
let parse_fault_spec args =
  let prob w =
    match float_of_string_opt w with Some p when p >= 0. && p <= 1. -> Some p | _ -> None
  in
  match args with
  | [ "off" ] -> Ok (None, "off")
  | [ p ] -> (
      match prob p with
      | Some p ->
          Ok
            ( Some { Fault.default_config with Fault.transient_p = p },
              Printf.sprintf "on: transient-p=%g" p )
      | None -> Error fault_usage)
  | [ p; cp ] -> (
      match (prob p, prob cp) with
      | Some p, Some cp ->
          Ok
            ( Some { Fault.default_config with Fault.transient_p = p; corrupt_p = cp },
              Printf.sprintf "on: transient-p=%g corrupt-p=%g" p cp )
      | _ -> Error fault_usage)
  | [ p; cp; seed ] -> (
      (* an integer seed, as the CLI's --fault-seed, so the seed the report
         prints is the one the injector runs with *)
      match (prob p, prob cp, int_of_string_opt seed) with
      | Some p, Some cp, Some seed ->
          Ok
            ( Some
                {
                  Fault.default_config with
                  Fault.transient_p = p;
                  corrupt_p = cp;
                  seed = Int64.of_int seed;
                },
              Printf.sprintf "on: transient-p=%g corrupt-p=%g seed=%d" p cp seed )
      | _ -> Error fault_usage)
  | _ -> Error fault_usage

let injector_report db =
  match Tx_db.faults db with
  | None -> "fault injection was not enabled"
  | Some fl ->
      let s = Fault.stats fl in
      Format.asprintf
        "fault injection off (injected: %d transient, %d spikes, %d crashes, %d \
         tampered, %d checksum failures)"
        s.Fault.transient s.Fault.spikes s.Fault.crashes s.Fault.tampered
        s.Fault.checksum_failures

let do_set_fault t ctx args =
  let composite = ctx.Exec.db in
  (* shard=K pins the injector to one shard of a sharded composite;
     replica=J narrows it further to one physical replica of that shard
     (the sibling replicas stay clean, so reads fail over around it) *)
  let tagged prefix words = List.partition (String.starts_with ~prefix) words in
  let shard_args, args = tagged "shard=" args in
  let replica_args, args = tagged "replica=" args in
  let int_of prefix s =
    let n = String.length prefix in
    int_of_string_opt (String.sub s n (String.length s - n))
  in
  match parse_fault_spec args with
  | Error msg -> say "%s" msg
  | Ok (spec, desc) -> (
      match (shard_args, replica_args) with
      | _ :: _ :: _, _ | _, _ :: _ :: _ ->
          say "set fault: at most one shard=K and one replica=J"
      | [], _ :: _ -> say "set fault: replica=J needs shard=K"
      | [ s ], [ r ] -> (
          match (int_of "shard=" s, int_of "replica=" r, t.shard) with
          | None, _, _ | _, None, _ -> say "set fault: shard= and replica= want integers"
          | _, _, None -> say "set fault: the attached store is not sharded"
          | Some k, Some j, Some sh ->
              let n_shards = Cfq_shard.Sharded.shard_count sh in
              let n_replicas = Cfq_shard.Sharded.replicas sh in
              if k < 0 || k >= n_shards then
                say "set fault: shard %d out of range (store has %d shards)" k n_shards
              else if j < 0 || j >= n_replicas then
                say "set fault: replica %d out of range (store has %d replicas)" j
                  n_replicas
              else begin
                Cfq_shard.Sharded.set_replica_fault sh ~shard:k ~replica:j
                  (Option.map Fault.create spec);
                say "fault injection %s (shard %d, replica %d)" desc k j
              end)
      | [ s ], [] -> (
          match (int_of "shard=" s, Tx_db.shards composite) with
          | None, _ -> say "set fault: shard= wants an integer"
          | Some _, None -> say "set fault: the attached database is not sharded"
          | Some k, Some subs when k >= 0 && k < Array.length subs ->
              let db = subs.(k) in
              if spec = None then begin
                let report = injector_report db in
                Tx_db.set_faults db None;
                say "%s (shard %d)" report k
              end
              else begin
                Tx_db.set_faults db (Option.map Fault.create spec);
                say "fault injection %s (shard %d)" desc k
              end
          | Some k, Some subs ->
              say "set fault: shard %d out of range (store has %d shards)" k
                (Array.length subs))
      | [], [] ->
          if spec = None then begin
            let report = injector_report composite in
            Tx_db.set_faults composite None;
            say "%s" report
          end
          else begin
            Tx_db.set_faults composite (Option.map Fault.create spec);
            say "fault injection %s" desc
          end)

let do_pairs t n =
  match t.last with
  | None -> say "no previous run; use 'run <query>' first"
  | Some r ->
      let shown = ref [] in
      List.iteri
        (fun i (s, p) ->
          if i < n then
            shown :=
              Printf.sprintf "  %s => %s"
                (Itemset.to_string s.Cfq_mining.Frequent.set)
                (Itemset.to_string p.Cfq_mining.Frequent.set)
              :: !shown)
        r.Exec.pairs;
      if !shown = [] then say "the last run produced no pairs (or none were collected)"
      else
        say "%d of %d pairs:\n%s" (min n (List.length r.Exec.pairs))
          r.Exec.pair_stats.Pairs.n_pairs
          (String.concat "\n" (List.rev !shown))

let do_rules t ctx q =
  let rules, r = Cfq_rules.Rule.mine ~strategy:t.strategy ~min_confidence:t.min_conf ctx q in
  t.last <- Some r;
  t.last_rules <- rules;
  let shown =
    List.filteri (fun i _ -> i < 15) rules
    |> List.map (Format.asprintf "  %a" Cfq_rules.Rule.pp)
  in
  say "%d pairs -> %d rules at confidence >= %.2f%s%s" r.Exec.pair_stats.Pairs.n_pairs
    (List.length rules) t.min_conf
    (if shown = [] then "" else "\n")
    (String.concat "\n" shown)

(* one line per physical replica: health, generation, page faults *)
let render_health_rows rows =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "  shard %d replica %d: %s (generation %d)%s"
           r.Cfq_shard.Scrub.hr_shard r.Cfq_shard.Scrub.hr_replica
           (Cfq_shard.Manifest.health_name r.Cfq_shard.Scrub.hr_health)
           r.Cfq_shard.Scrub.hr_generation
           (match r.Cfq_shard.Scrub.hr_faults with
           | [] -> ""
           | faults ->
               Printf.sprintf " -- %d bad pages: %s" (List.length faults)
                 (String.concat ", "
                    (List.map
                       (fun f ->
                         Printf.sprintf "%d/%s" f.Cfq_store.Store.pf_page
                           (Cfq_store.Store.page_fault_kind_name
                              f.Cfq_store.Store.pf_kind))
                       faults))))
       rows)

let do_verify t =
  match (t.shard, t.store) with
  | Some sh, _ ->
      let rows = Cfq_shard.Scrub.health_report sh in
      say "%s\n%s"
        (if Cfq_shard.Scrub.healthy_report rows then
           "all replicas healthy, every page verified"
         else "VERIFICATION FAILED -- run 'scrub' to quarantine and repair")
        (render_health_rows rows)
  | None, Some store -> (
      match Cfq_store.Store.verify_pages store with
      | [] -> say "all %d pages verified" (Cfq_store.Store.pages store)
      | faults ->
          say "VERIFICATION FAILED -- %d bad pages: %s" (List.length faults)
            (String.concat ", "
               (List.map
                  (fun f ->
                    Printf.sprintf "%d/%s" f.Cfq_store.Store.pf_page
                      (Cfq_store.Store.page_fault_kind_name f.Cfq_store.Store.pf_kind))
                  faults)))
  | None, None -> say "no persistent store attached; use 'open' first"

let do_scrub t =
  match t.shard with
  | None -> say "scrub wants an attached sharded store; use 'open' first"
  | Some sh ->
      (* the scrubber may seal and repair, replacing db handles: quiesce
         the service and rebuild the execution context afterwards *)
      drop_service t;
      let report = Cfq_shard.Scrub.run sh in
      (match t.ctx with
      | Some ctx ->
          t.ctx <- Some (Exec.context (Cfq_shard.Sharded.db sh) ctx.Exec.s_info)
      | None -> ());
      t.last <- None;
      let rows =
        List.filter
          (fun r -> r.Cfq_shard.Scrub.rr_outcome <> Cfq_shard.Scrub.Clean)
          report.Cfq_shard.Scrub.rows
      in
      say "scrubbed %d pages: %d faults, %d replicas repaired, %d repair failures%s"
        report.Cfq_shard.Scrub.scrubbed_pages report.Cfq_shard.Scrub.faults_found
        report.Cfq_shard.Scrub.repairs report.Cfq_shard.Scrub.repair_failures
        (if rows = [] then ""
         else
           "\n"
           ^ String.concat "\n"
               (List.map
                  (fun r ->
                    Printf.sprintf "  shard %d replica %d: %s -> %s"
                      r.Cfq_shard.Scrub.rr_shard r.Cfq_shard.Scrub.rr_replica
                      (Cfq_shard.Scrub.outcome_name r.Cfq_shard.Scrub.rr_outcome)
                      (Cfq_shard.Manifest.health_name r.Cfq_shard.Scrub.rr_health))
                  rows))

let do_stats t ctx =
  let db = ctx.Exec.db in
  let attrs =
    Item_info.attrs ctx.Exec.s_info
    |> List.map (fun a -> a.Attr.name)
    |> String.concat ", "
  in
  let store_line =
    match t.store with
    | None -> ""
    | Some s ->
        let io = Cfq_store.Store.io s in
        Printf.sprintf "\nstore: %s (cache %d pages; pool hits %d, misses %d, evictions %d)"
          (Cfq_store.Store.path s)
          (Cfq_store.Store.cache_pages s)
          (Io_stats.pool_hits io) (Io_stats.pool_misses io)
          (Io_stats.pool_evictions io)
  in
  let manifest_line =
    match t.shard with
    | None -> ""
    | Some sh ->
        let m = Cfq_shard.Sharded.manifest sh in
        Printf.sprintf "\nsharded store: %s (%s partition, generation %d)"
          (Cfq_shard.Sharded.path sh)
          (Cfq_shard.Manifest.partition_name m.Cfq_shard.Manifest.partition)
          m.Cfq_shard.Manifest.generation
  in
  let shard_lines =
    match Tx_db.shards db with
    | None -> ""
    | Some subs ->
        let ios = Tx_db.shard_io db in
        let replica_lines k =
          match t.shard with
          | None -> ""
          | Some sh ->
              let g = (Cfq_shard.Sharded.groups sh).(k) in
              if Cfq_shard.Replica.replica_count g <= 1 then ""
              else
                String.concat ""
                  (List.init (Cfq_shard.Replica.replica_count g) (fun j ->
                       Printf.sprintf
                         "\n  replica %d: %s%s, %d read errors, %d write errors" j
                         (Cfq_shard.Manifest.health_name
                            (Cfq_shard.Replica.health g ~replica:j))
                         (if j = Cfq_shard.Replica.preferred g then " (preferred)"
                          else "")
                         (Cfq_shard.Replica.read_errors g ~replica:j)
                         (Cfq_shard.Replica.write_errors g ~replica:j)))
                ^ Printf.sprintf "\n  failovers: %d" (Cfq_shard.Replica.failovers g)
        in
        String.concat ""
          (List.init (Array.length subs) (fun k ->
               Printf.sprintf
                 "\nshard %d: %d transactions, %d pages, %d scans, %d pages read%s"
                 k (Tx_db.size subs.(k)) (Tx_db.pages subs.(k))
                 (Io_stats.scans ios.(k))
                 (Io_stats.pages_read ios.(k))
                 (replica_lines k)))
  in
  say "transactions: %d\navg length: %.2f\npages (4K): %d\nchunk runs: %d\nattributes: %s%s%s%s"
    (Tx_db.size db) (Tx_db.avg_tx_len db) (Tx_db.pages db) (Tx_db.chunk_runs db)
    (if attrs = "" then "(none)" else attrs)
    store_line manifest_line shard_lines

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* first word = command, rest = argument text *)
let split_command line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (String.lowercase_ascii line, "")
  | Some i ->
      ( String.lowercase_ascii (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let eval t line =
  let cmd, rest = split_command line in
  match cmd with
  | "" -> { output = ""; quit = false }
  | "quit" | "exit" -> { output = "bye"; quit = true }
  | "help" -> { output = help_text; quit = false }
  | "load" -> (
      match split_words rest with
      | [ path ] -> do_load t path None
      | [ path; info ] -> do_load t path (Some info)
      | _ -> say "usage: load <tx.fimi> [<items.csv>]")
  | "gen" -> (
      match List.map int_of_string_opt (split_words rest) with
      | [ Some n_tx; Some n_items ] -> do_gen t n_tx n_items 42
      | [ Some n_tx; Some n_items; Some seed ] -> do_gen t n_tx n_items seed
      | _ -> say "usage: gen <n_tx> <n_items> [seed]")
  | "set" -> (
      match split_words rest with
      | [ "strategy"; name ] -> (
          match List.assoc_opt name strategies with
          | Some s ->
              t.strategy <- s;
              say "strategy set to %s" (Plan.strategy_name s)
          | None ->
              say "unknown strategy %S; one of: %s" name
                (String.concat ", " (List.map fst strategies)))
      | [ "minconf"; v ] -> (
          match float_of_string_opt v with
          | Some f when f >= 0. && f <= 1. ->
              t.min_conf <- f;
              say "minimum confidence set to %.2f" f
          | Some _ | None -> say "minconf must be a float in [0, 1]")
      | "fault" :: args -> with_ctx t (fun ctx -> do_set_fault t ctx args)
      | [ "replicas"; r ] -> (
          match int_of_string_opt r with
          | Some n when n >= 1 ->
              t.replicas <- n;
              if n = 1 then say "replication off (1 replica per shard)"
              else
                say
                  "next sharded split keeps %d replicas per shard (mirrored \
                   ingestion, read failover)"
                  n
          | Some _ | None -> say "replicas must be an integer >= 1")
      | [ "domains"; n ] -> (
          match int_of_string_opt n with
          | Some d when d >= 1 ->
              t.mine_domains <- d;
              if d = 1 then say "counting set to sequential"
              else say "counting fans out over %d domains per scan" d
          | Some _ | None -> say "domains must be an integer >= 1")
      | [ "calibrate"; v ] -> (
          match v with
          | "on" | "true" | "1" ->
              if not t.calibrate then begin
                t.calibrate <- true;
                drop_service t
              end;
              say "calibration on: measured throughput tunes the Auto planner"
          | "off" | "false" | "0" ->
              if t.calibrate then begin
                t.calibrate <- false;
                drop_service t
              end;
              say "calibration off: the cost model keeps its fixed priors"
          | _ -> say "usage: set calibrate <on|off>")
      | [ "condense"; v ] -> (
          match v with
          | "on" | "true" | "1" ->
              if not t.condense then begin
                t.condense <- true;
                drop_service t
              end;
              say
                "condensation on: cached collections stored as closed sets, \
                 answers index-packed"
          | "off" | "false" | "0" ->
              if t.condense then begin
                t.condense <- false;
                drop_service t
              end;
              say "condensation off: the cache stores raw collections"
          | _ -> say "usage: set condense <on|off>")
      | [ "kernel"; name ] -> (
          match Cfq_mining.Counting.kernel_of_string name with
          | Some k ->
              if k <> t.kernel then begin
                t.kernel <- k;
                (* the service bakes the kernel into its config: retire it so
                   the next 'serve' picks the new one up *)
                drop_service t
              end;
              say "counting kernel set to %s" (Cfq_mining.Counting.kernel_name k)
          | None ->
              say "unknown kernel %S; one of: %s" name
                (String.concat ", "
                   (List.map fst Cfq_mining.Counting.all_kernels)))
      | _ ->
          say
            "usage: set strategy <name> | set minconf <float> | set domains <n> | \
             set kernel <name> | set calibrate <on|off> | set condense <on|off> | \
             set replicas <r> | set fault ...")
  | "explain" ->
      with_ctx t (fun ctx ->
          parse_query t ctx rest (fun (t, q) ->
              let plan = Optimizer.plan ~strategy:t.strategy ~nonneg:ctx.Exec.nonneg q in
              say "%s" (Explain.plan_to_string q plan)))
  | "advise" ->
      with_ctx t (fun ctx ->
          parse_query t ctx rest (fun (_, q) ->
              say "%s" (Format.asprintf "%a" Advisor.pp (Advisor.advise ctx q))))
  | "run" -> with_ctx t (fun ctx -> parse_query t ctx rest (fun (t, q) -> do_run t ctx q))
  | "rules" ->
      with_ctx t (fun ctx -> parse_query t ctx rest (fun (t, q) -> do_rules t ctx q))
  | "pairs" -> (
      match int_of_string_opt (String.trim rest) with
      | Some n when n > 0 -> do_pairs t n
      | Some _ | None -> say "usage: pairs <n>")
  | "export" -> (
      match split_words rest with
      | [ "pairs"; path ] -> (
          match t.last with
          | None -> say "no previous run; use 'run <query>' first"
          | Some r -> (
              match Cfq_data.Result_csv.write_pairs path r.Exec.pairs with
              | () -> say "wrote %d pairs to %s" (List.length r.Exec.pairs) path
              | exception Sys_error msg -> say "export failed: %s" msg))
      | [ "rules"; path ] -> (
          if t.last_rules = [] then say "no rules yet; use 'rules <query>' first"
          else
            match Cfq_data.Result_csv.write_rules path t.last_rules with
            | () -> say "wrote %d rules to %s" (List.length t.last_rules) path
            | exception Sys_error msg -> say "export failed: %s" msg)
      | _ -> say "usage: export pairs <file.csv> | export rules <file.csv>")
  | "profile" -> (
      match t.last with
      | None -> say "no previous run; use 'run <query>' first"
      | Some r ->
          say "S: %a@\nT: %a" Cfq_report.Profile.pp
            (Cfq_report.Profile.of_frequent r.Exec.s.Exec.frequent)
            Cfq_report.Profile.pp
            (Cfq_report.Profile.of_frequent r.Exec.t.Exec.frequent))
  | "serve" ->
      if rest = "" then say "usage: serve <queries.txt>"
      else
        with_ctx t (fun ctx ->
            match Cfq_service.Batch.run_file (service_for t ctx) rest with
            | Ok report -> say "%s" report
            | Error msg -> say "serve failed: %s" msg)
  | "cachestats" ->
      with_ctx t (fun ctx ->
          say "%s"
            (Cfq_report.Table.render
               (Cfq_service.Service.metrics_table (service_for t ctx))))
  | "open" -> (
      let usage () = say "usage: open <store.cfqdb> [<cache_pages>] [shards=N]" in
      match split_words rest with
      | path :: opts -> (
          let parse (acc, err) w =
            match acc with
            | cache, _ when String.starts_with ~prefix:"shards=" w -> (
                let v = String.sub w 7 (String.length w - 7) in
                match int_of_string_opt v with
                | Some n when n >= 1 -> ((cache, n), err)
                | Some _ | None -> (acc, Some "shards must be an integer >= 1"))
            | None, shards -> (
                match int_of_string_opt w with
                | Some c when c >= 1 -> ((Some c, shards), err)
                | Some _ | None -> (acc, Some "cache_pages must be an integer >= 1"))
            | Some _, _ -> (acc, Some "too many arguments")
          in
          match List.fold_left parse ((None, 1), None) opts with
          | _, Some msg ->
              let u = usage () in
              say "%s\n%s" msg u.output
          | (cache_pages, shards), None -> do_open_any t path cache_pages shards)
      | [] -> usage ())
  | "save" -> (
      match split_words rest with
      | [ path ] -> with_ctx t (fun ctx -> do_save ctx path)
      | _ -> say "usage: save <store.cfqdb>")
  | "ingest" -> (
      match split_words rest with
      | [ store_path; fimi_path ] -> do_ingest t store_path fimi_path
      | _ -> say "usage: ingest <store.cfqdb> <tx.fimi>")
  | "verify" -> do_verify t
  | "scrub" -> do_scrub t
  | "live" -> do_live t
  | "stats" -> with_ctx t (do_stats t)
  | other -> say "unknown command %S; try 'help'" other

(* In-memory spans recorded by the benchmark around its own calls into each
   layer.  A span has a name, start and end (monotonic seconds), the span
   that caused it and the operation it belongs to.  Nothing is written
   until [write] at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** operation id; spans of one operation share it *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = -1 }
let set_op t op = t.op <- op

let with_span t name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next_id; parent; op = t.op; name; t0 = Unix.gettimeofday (); t1 = 0. } in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    f

(* a span-recording function that records nothing, for the untraced path *)
let maybe t name f = match t with Some t -> with_span t name f | None -> f ()

let spans t = List.rev t.spans

(* Per span name: (count, total seconds, self seconds).  Self time is the
   span's duration minus the part of it covered by its children; children
   of one span run sequentially on the benchmark's one client, so the
   covered part is the sum of their durations. *)
let summary t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child_time s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let n, tot, slf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, tot +. d, slf +. self))
    t.spans;
  acc

(* seconds in spans named one of [names] that run inside a span named
   [ancestor] *)
let total_under t ~ancestor names =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let rec inside s =
    match Hashtbl.find_opt by_id s.parent with
    | None -> false
    | Some p -> p.name = ancestor || inside p
  in
  List.fold_left
    (fun acc s -> if List.mem s.name names && inside s then acc +. (s.t1 -. s.t0) else acc)
    0. t.spans

(* JSON lines, one span per line, times relative to the first span *)
let write t path =
  let spans = spans t in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.parent s.op s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6))
    spans;
  close_out oc

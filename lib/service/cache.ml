type 'a entry = { epoch : int; payload : 'a; weight : int }
type 'a t = 'a entry Lru.t

type 'a probe =
  | Exact of string
  | Covering of { covers : 'a -> bool; rank : 'a -> int }

let lookup ?(bump = true) c ~epoch = function
  | Exact key -> (
      match Lru.find c key with
      | Some e when e.epoch = epoch -> Some e
      | Some _ | None -> None)
  | Covering { covers; rank } ->
      (* the fold is MRU-first, so a later entry displaces the best only
         with a strictly lower rank; [covers] runs only on entries that
         could win *)
      let best =
        Lru.fold
          (fun best ~key ~value:e ->
            if e.epoch <> epoch then best
            else
              match best with
              | Some (_, b) when rank b.payload <= rank e.payload -> best
              | _ -> if covers e.payload then Some (key, e) else best)
          None c
      in
      (match best with
      | Some (key, _) when bump -> ignore (Lru.find c key : _ entry option)
      | _ -> ());
      Option.map snd best

let insert c ~epoch key e = e.epoch = epoch && Lru.insert c key ~weight:e.weight e

let retire c ~epoch key =
  match Lru.find c key with
  | Some e when e.epoch < epoch -> Lru.remove c key
  | Some _ | None -> ()

let promote c ~epoch ~old_key key e =
  retire c ~epoch:e.epoch old_key;
  insert c ~epoch key e

let purge c ~epoch =
  Lru.fold (fun acc ~key ~value -> if value.epoch < epoch then key :: acc else acc) [] c
  |> List.iter (Lru.remove c)

let lru_first c = Lru.fold (fun acc ~key ~value -> (key, value) :: acc) [] c

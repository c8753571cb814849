(** The service's cache entries and the operations every cache path shares.

    Cached side collections and cached answers have one shape: the
    {e epoch} (database generation) their supports are exact for, a
    payload stored raw or condensed, and the memoized weight the cache
    charges.  Entries live in an {!Lru.t}; the answer cache, subsumption,
    degraded serving, breaker-open serving and live promotion all read and
    write them through the functions here, so the epoch rule is enforced
    in one place: a lookup never returns an entry stamped with another
    epoch than the one asked for, and an insert never lands once a seal
    has moved the cache past the entry's epoch.

    Not thread-safe; {!Cfq_service.Service} calls everything with its lock
    held. *)

type 'a entry = {
  epoch : int;  (** database generation the supports are exact for *)
  payload : 'a;
  weight : int;  (** memoized cache charge, approximate bytes *)
}

type 'a t = 'a entry Lru.t

type 'a probe =
  | Exact of string  (** the entry bound to this key *)
  | Covering of { covers : 'a -> bool; rank : 'a -> int }
      (** among the entries [covers] accepts, the one of least [rank];
          the most recently used one wins a tie *)

(** [lookup ?bump c ~epoch p] is the entry [p] selects among those
    stamped [epoch].  The hit is bumped to most recently used; [~bump:false]
    leaves a covering hit where it is (an exact read always bumps). *)
val lookup : ?bump:bool -> 'a t -> epoch:int -> 'a probe -> 'a entry option

(** [insert c ~epoch k e] binds [k] to [e] when [e] is stamped with the
    current [epoch]: an entry computed against a snapshot a seal has since
    replaced is dropped.  [false] when dropped, or when [e] alone exceeds
    the budget ({!Lru.insert}). *)
val insert : 'a t -> epoch:int -> string -> 'a entry -> bool

(** [retire c ~epoch k] removes [k]'s binding while it is older than
    [epoch]; a fresher entry another promotion re-keyed onto [k] stays. *)
val retire : 'a t -> epoch:int -> string -> unit

(** [promote c ~epoch ~old_key k e] replaces the stale entry at [old_key]
    by its promotion [e], re-keyed to [k]: {!retire} then {!insert}. *)
val promote : 'a t -> epoch:int -> old_key:string -> string -> 'a entry -> bool

(** [purge c ~epoch] removes every entry older than [epoch]. *)
val purge : 'a t -> epoch:int -> unit

(** The bindings, least recently used first, so re-inserting them in
    order preserves recency. *)
val lru_first : 'a t -> (string * 'a entry) list

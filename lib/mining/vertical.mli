(** Vertical (tid-list) Eclat mining — the FUP delta seeder and the
    independent mining oracle.

    One scan materialises, for every item, the sorted list of transaction
    ids containing it; a depth-first Eclat then intersects those lists
    with no further database access.  {!Incremental.update_abs} mines each
    sealed delta this way to seed the candidates it counts against the old
    database, and the tests check Apriori and FUP maintenance against it.
    The levelwise engines keep the horizontal representation, which the
    paper's I/O model is built around; batched vertical support probes
    during counting are {!Tid_bitmaps}. *)

open Cfq_txdb

type t

(** [build db io ~universe_size] runs the one materialisation scan (one
    scan charged to [io]).  The tid lists cover items [0 .. universe_size-1];
    larger item ids are skipped, as cold mining never considers them. *)
val build : Tx_db.t -> Io_stats.t -> universe_size:int -> t

(** [mine t ~minsup] runs a depth-first Eclat over the tid lists and
    returns all frequent itemsets. *)
val mine : t -> minsup:int -> Frequent.t

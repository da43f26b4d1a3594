(** Content-addressed layout cache.

    A byte store keyed by digest strings, with an in-memory LRU tier and an
    optional on-disk tier, shared by every level of a sweep. Keys are
    derived from structural fingerprints of a layout's inputs (see
    {!Flow.Pipeline} and DESIGN.md §6.2), so a lookup can only ever return
    bytes produced by the identical computation — the cache accelerates
    repeated sweeps without touching the §6.1 bit-identity contract.

    {b Domains.} One store may be shared by any number of domains and
    threads: every operation holds an internal mutex, and concurrent
    {!find_or_compute} requests for the same missing key are
    single-flighted — exactly one caller computes while the rest block
    and then take the hit. Hit/miss totals are therefore identical at any
    [-j], which keeps the [cache.*] counters deterministic.

    {b Disk tier.} Entries are written atomically (temp file + rename) as
    a magic header, an MD5 digest of the payload and the payload itself;
    the digest is verified before a disk entry is returned, so truncated
    or corrupted files fall back to a recompute (counted in
    [cache.disk_corrupt]) instead of feeding [Marshal] unchecked bytes.

    {b Processes.} A disk directory may be shared by several processes
    (e.g. a serving daemon next to one-shot CLI runs). {!find_or_compute}
    extends single-flight across them with an exclusive [fcntl] lock on
    a per-key ["<key>.lock"] file: the computing process publishes the
    entry and unlinks the lock file before releasing the lock, and a
    process that loses the race finds the entry on its post-lock re-check
    instead of recomputing (counted as a disk hit). A waiter that wakes
    holding an unlinked file retries on the file now at the path, so no
    lock file outlives its computation. {!create} sweeps debris left by crashed
    writers — temp files whose recorded owner PID is dead — while leaving
    live writers' files alone.

    Effectiveness is observable in the metrics registry: [cache.mem_hits],
    [cache.disk_hits], [cache.misses], [cache.stores], [cache.evictions],
    [cache.disk_corrupt], [cache.bytes_written], [cache.bytes_read]. *)

type t

val create : ?mem_capacity:int -> ?dir:string -> unit -> t
(** [mem_capacity] bounds the in-memory tier in payload bytes (default
    256 MiB); least-recently-used entries are evicted past it. [dir]
    enables the disk tier (the directory is created if missing); evicted
    entries remain readable from disk and survive across processes. *)

val key : string list -> string
(** Digest a list of key parts into a hex cache key. Parts are
    length-prefixed before hashing, so no two distinct part lists
    collide by concatenation. *)

val find : t -> string -> string option
(** Memory tier first (refreshing recency), then disk (verifying the
    payload digest and promoting the entry into memory). [None] counts
    in [cache.misses]. *)

val add : t -> string -> string -> unit
(** Insert into both tiers. Adding an existing key is a no-op. *)

val find_or_compute : t -> key:string -> (unit -> string) -> string * bool
(** [find_or_compute t ~key f] returns [(value, hit)]. On a miss, [f]
    runs outside the store lock and its result is inserted; concurrent
    callers of the same missing key wait for the computing one instead
    of duplicating the work. If [f] raises, nothing is stored and every
    waiter re-races the computation. *)

val memo : t -> key:string -> (unit -> 'a) -> 'a
(** [find_or_compute] with [Marshal] round-tripping: always returns a
    structurally fresh copy, safe for callers that mutate the result.
    The caller is responsible for keying so that the stored type is
    unambiguous (include a version token in the key parts). *)

val mem_entries : t -> int
val mem_bytes : t -> int
(** Occupancy of the memory tier, for tests and reports. *)

let m_mem_hits = Obs.Metrics.counter "cache.mem_hits"
let m_disk_hits = Obs.Metrics.counter "cache.disk_hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_stores = Obs.Metrics.counter "cache.stores"
let m_evictions = Obs.Metrics.counter "cache.evictions"
let m_disk_corrupt = Obs.Metrics.counter "cache.disk_corrupt"
let m_bytes_written = Obs.Metrics.counter "cache.bytes_written"
let m_bytes_read = Obs.Metrics.counter "cache.bytes_read"

(* doubly-linked LRU list over the memory tier; [head] is most recent *)
type node = {
  n_key : string;
  n_value : string;
  mutable n_prev : node option;  (* towards head *)
  mutable n_next : node option;  (* towards tail *)
}

type t = {
  mutex : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  capacity : int;
  dir : string option;
}

let default_capacity = 256 * 1024 * 1024

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* "<key>.tmp-<pid>-<seq>" -> Some pid *)
let tmp_owner name =
  match Scanf.sscanf (Filename.extension name) ".tmp-%d-%d%!" (fun pid _seq -> pid) with
  | pid -> Some pid
  | exception _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true (* EPERM and friends: someone else's live process *)

(* a temp file whose writer is gone is debris from a crash: it will never
   be renamed into place and lookups skip it, so it only wastes disk.
   Files of live writers in other processes are left strictly alone. *)
let clean_stale_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        match tmp_owner name with
        | Some pid when pid = Unix.getpid () || not (pid_alive pid) ->
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        | _ -> ())
      entries

let create ?(mem_capacity = default_capacity) ?dir () =
  Option.iter mkdir_p dir;
  Option.iter clean_stale_tmp dir;
  { mutex = Mutex.create ();
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    capacity = mem_capacity;
    dir }

let key parts =
  let buf = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- LRU list plumbing (all under the mutex) ---- *)

let unlink t n =
  (match n.n_prev with Some p -> p.n_next <- n.n_next | None -> t.head <- n.n_next);
  (match n.n_next with Some s -> s.n_prev <- n.n_prev | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let evict_to_capacity t =
  while t.bytes > t.capacity && t.tail <> None do
    match t.tail with
    | None -> ()
    | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.n_key;
      t.bytes <- t.bytes - String.length n.n_value;
      Obs.Metrics.incr m_evictions
  done

let mem_insert t key value =
  if not (Hashtbl.mem t.table key) then begin
    let size = String.length value in
    if size <= t.capacity then begin
      let n = { n_key = key; n_value = value; n_prev = None; n_next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      t.bytes <- t.bytes + size;
      evict_to_capacity t
    end
  end

(* ---- disk tier ---- *)

let magic = "TPICACHE1\n"

let path_of dir key = Filename.concat dir key

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* verify magic + payload digest before handing bytes to a caller (which
   will typically Marshal.from_string them -- unchecked input could crash
   the process, not just raise) *)
let disk_read t key =
  match t.dir with
  | None -> None
  | Some dir ->
    let path = path_of dir key in
    if not (Sys.file_exists path) then None
    else begin
      match read_file path with
      | exception _ ->
        Obs.Metrics.incr m_disk_corrupt;
        None
      | raw ->
        let header = String.length magic + 16 in
        let len = String.length raw - header in
        if
          len >= 0
          && String.sub raw 0 (String.length magic) = magic
          && Digest.substring raw header len = String.sub raw (String.length magic) 16
        then begin
          Obs.Metrics.add m_bytes_read len;
          Some (String.sub raw header len)
        end
        else begin
          Obs.Metrics.incr m_disk_corrupt;
          None
        end
    end

let tmp_seq = Atomic.make 0

(* atomic publish: a reader never sees a partially written entry, and a
   crashed writer leaves only a .tmp file behind (ignored by lookups) *)
let disk_write t key value =
  match t.dir with
  | None -> ()
  | Some dir ->
    (* written unconditionally: an add follows a miss, so an existing file
       here is a corrupted entry being healed or the same bytes published
       by another process sharing the directory; either way the rename
       replaces it whole *)
    let path = path_of dir key in
    let tmp =
      Printf.sprintf "%s.tmp-%d-%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
    in
    (match
       Out_channel.with_open_bin tmp (fun oc ->
           output_string oc magic;
           output_string oc (Digest.string value);
           output_string oc value);
       Sys.rename tmp path
     with
     | () -> Obs.Metrics.add m_bytes_written (String.length value)
     | exception _ -> ( (* best effort: a full disk degrades to memory-only *)
       try Sys.remove tmp with _ -> ()))

(* ---- lookups ---- *)

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        touch t n;
        Obs.Metrics.incr m_mem_hits;
        Some n.n_value
      | None ->
        (match disk_read t key with
         | Some value ->
           Obs.Metrics.incr m_disk_hits;
           mem_insert t key value;
           Some value
         | None ->
           Obs.Metrics.incr m_misses;
           None))

let add t key value =
  with_lock t (fun () ->
      Obs.Metrics.incr m_stores;
      mem_insert t key value;
      disk_write t key value)

let mem_entries t = with_lock t (fun () -> Hashtbl.length t.table)
let mem_bytes t = with_lock t (fun () -> t.bytes)

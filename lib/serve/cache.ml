(* Classic Hashtbl + doubly-linked-list LRU.  The list is threaded
   through the nodes stored in the table, so every operation is O(1). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards MRU *)
  mutable next : 'a node option;  (* towards LRU *)
}

type 'a t = {
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable evicted : int;
}

let create ~capacity =
  {
    cap = capacity;
    tbl = Hashtbl.create (Stdlib.max 16 capacity);
    head = None;
    tail = None;
    evicted = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k
let evictions t = t.evicted

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.tbl k)

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let drop_node t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key

let add t k v =
  if t.cap > 0 then begin
    (match Hashtbl.find_opt t.tbl k with
    | Some n ->
        n.value <- v;
        unlink t n;
        push_front t n
    | None ->
        let n = { key = k; value = v; prev = None; next = None } in
        Hashtbl.add t.tbl k n;
        push_front t n);
    if Hashtbl.length t.tbl > t.cap then
      match t.tail with
      | Some lru ->
          drop_node t lru;
          t.evicted <- t.evicted + 1
      | None -> assert false
  end

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n -> drop_node t n
  | None -> ()

let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

let dump t =
  (* LRU first, so [List.iter (add t') (dump t)] rebuilds identical
     recency order in a fresh cache. *)
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.prev
  in
  go [] t.tail

let set_evictions t n = t.evicted <- n

let remove_where t pred =
  let doomed = List.filter pred (keys t) in
  List.iter (remove t) doomed;
  List.length doomed

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  (* The eviction counter describes the current cache generation; a
     count surviving [clear] would leak into the next generation's
     stats and overstate capacity pressure. *)
  t.evicted <- 0

type row = { label : string option; fields : (string * int) list }

type t = {
  lock : Mutex.t;
  sections_tbl : (string, row list ref) Hashtbl.t;
  mutable order : string list;  (* reversed first-seen order *)
  retaining : bool Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    sections_tbl = Hashtbl.create 16;
    order = [];
    retaining = Atomic.make false;
  }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let retain t = Atomic.set t.retaining true
let retained t = Atomic.get t.retaining

let record ?label t ~section fields =
  if retained t then
    locked t (fun () ->
        let cell =
          match Hashtbl.find_opt t.sections_tbl section with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.add t.sections_tbl section c;
              t.order <- section :: t.order;
              c
        in
        cell := { label; fields } :: !cell)

let rows t section =
  locked t (fun () ->
      match Hashtbl.find_opt t.sections_tbl section with
      | Some c -> List.rev !c
      | None -> [])

let sections t = locked t (fun () -> List.rev t.order)

let row_to_json r =
  let label =
    match r.label with Some l -> [ ("label", Json.Str l) ] | None -> []
  in
  Json.Obj (label @ List.map (fun (k, v) -> (k, Json.Int v)) r.fields)

let to_json t =
  locked t (fun () ->
      Json.Obj
        (List.rev_map
           (fun section ->
             let rows =
               match Hashtbl.find_opt t.sections_tbl section with
               | Some c -> List.rev_map row_to_json !c
               | None -> []
             in
             (section, Json.List rows))
           t.order))

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.sections_tbl;
      t.order <- [])

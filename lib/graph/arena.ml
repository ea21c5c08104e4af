module Stamp = struct
  type t = { mutable stamp : int array; mutable epoch : int }

  let create () = { stamp = [||]; epoch = 0 }

  let reset t n =
    if Array.length t.stamp < n then begin
      let cap = ref (Stdlib.max 16 (Array.length t.stamp)) in
      while !cap < n do
        cap := 2 * !cap
      done;
      t.stamp <- Array.make !cap 0;
      t.epoch <- 0
    end;
    t.epoch <- t.epoch + 1

  let mark t i = Array.unsafe_set t.stamp i t.epoch

  let mem t i = Array.unsafe_get t.stamp i = t.epoch

  let add t i =
    if Array.unsafe_get t.stamp i = t.epoch then false
    else begin
      Array.unsafe_set t.stamp i t.epoch;
      true
    end
end

module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let clear t = t.len <- 0

  let reserve t cap =
    if Array.length t.data < cap then begin
      let data = Array.make cap 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t x =
    if t.len = Array.length t.data then
      reserve t (Stdlib.max 16 (2 * Array.length t.data));
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let length t = t.len

  let get t i = Array.unsafe_get t.data i

  let data t = t.data
end

type 'a slot = 'a Domain.DLS.key

let slot init = Domain.DLS.new_key init

let get s = Domain.DLS.get s

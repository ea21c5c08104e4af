(* Performance-contract tests for the allocation-free kernels:
   Arena.Stamp / Arena.Ints semantics, minor-word budgets for the hot
   iterators (Weighted_graph.iter_neighbors, Tau.iter_homogeneous, the
   cached Layered builds, Prng draws) and Graph_io.digest's
   allocation, the canonical equal-gain
   tie-break, greedy's content-defined (weight desc, u, v) order, the
   stable weight-ordered stream arrangement, and the scale-tier
   generators.

   The budget tests measure [Gc.minor_words] deltas (domain-local, so
   they are exact for single-domain code) after a warm-up call that
   pays one-time costs: slot initialisation, arena growth, CSR
   indexing.  Budgets are loose by an order of magnitude against the
   arena implementations, and tight by orders of magnitude against the
   list/Hashtbl implementations they replaced — they catch
   reintroduced per-element allocation, not codegen noise. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Arena = Wm_graph.Arena
module ES = Wm_stream.Edge_stream
module A = Wm_core.Aug
module Tau = Wm_core.Tau
module Layered = Wm_core.Layered
module AC = Wm_core.Aug_class

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Minor words allocated by [f ()], as an int. *)
let words f =
  let a = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. a)

(* ------------------------------------------------------------------ *)
(* Arena primitives *)

let test_stamp () =
  let s = Arena.Stamp.create () in
  Arena.Stamp.reset s 10;
  check_bool "empty after reset" false (Arena.Stamp.mem s 3);
  Arena.Stamp.mark s 3;
  check_bool "marked" true (Arena.Stamp.mem s 3);
  check_bool "others untouched" false (Arena.Stamp.mem s 4);
  check_bool "add new" true (Arena.Stamp.add s 4);
  check_bool "add seen" false (Arena.Stamp.add s 4);
  (* A reset is a fresh epoch: old marks are invisible without any
     clearing pass. *)
  Arena.Stamp.reset s 10;
  check_bool "reset forgets" false (Arena.Stamp.mem s 3);
  (* Growing the universe preserves the fresh-epoch contract. *)
  Arena.Stamp.reset s 1000;
  check_bool "grown empty" false (Arena.Stamp.mem s 999);
  Arena.Stamp.mark s 999;
  check_bool "grown mark" true (Arena.Stamp.mem s 999)

let test_stamp_reset_allocation_free () =
  let s = Arena.Stamp.create () in
  Arena.Stamp.reset s 4096;
  (* warm: backing array now sized *)
  let w =
    words (fun () ->
        for _ = 1 to 1000 do
          Arena.Stamp.reset s 4096;
          Arena.Stamp.mark s 7
        done)
  in
  (* A bool-array replacement would clear or allocate 4096 slots per
     reset; the epoch bump must stay O(1) and allocation-free. *)
  check_bool (Printf.sprintf "1000 resets cost %d words" w) true (w < 256)

let test_ints () =
  let v = Arena.Ints.create () in
  check "fresh length" 0 (Arena.Ints.length v);
  for i = 0 to 99 do
    Arena.Ints.push v (i * i)
  done;
  check "length" 100 (Arena.Ints.length v);
  check "get" (49 * 49) (Arena.Ints.get v 49);
  let d = Arena.Ints.data v in
  check "data prefix" (99 * 99) d.(99);
  Arena.Ints.clear v;
  check "cleared" 0 (Arena.Ints.length v);
  Arena.Ints.push v 5;
  check "reuse after clear" 5 (Arena.Ints.get v 0)

let test_ints_push_allocation_free () =
  let v = Arena.Ints.create () in
  for i = 0 to 9999 do
    Arena.Ints.push v i
  done;
  (* warm: capacity grown *)
  Arena.Ints.clear v;
  let w =
    words (fun () ->
        for i = 0 to 9999 do
          Arena.Ints.push v i
        done)
  in
  (* A list accumulator costs 3 words per element (30k words here). *)
  check_bool (Printf.sprintf "10k pushes cost %d words" w) true (w < 256)

(* ------------------------------------------------------------------ *)
(* Allocation budgets for the hot iterators *)

let test_iter_neighbors_budget () =
  let g = Gen.gnp (P.create 11) ~n:400 ~p:0.02 ~weights:(Gen.Uniform (1, 100)) in
  let acc = ref 0 in
  let visit _ e = acc := !acc + E.weight e in
  let sweep () =
    for v = 0 to G.n g - 1 do
      G.iter_neighbors g v visit
    done
  in
  sweep ();
  (* warm: CSR adjacency index built *)
  let w = words sweep in
  check_bool
    (Printf.sprintf "sweep of %d edges cost %d words" (G.m g) w)
    true (w < 256);
  check_bool "visited both directions" true (!acc >= 2 * G.m g)

let test_iter_homogeneous_budget () =
  let tp = Tau.make_params ~granularity:(1.0 /. 32.0) ~max_layers:9 ~slack:0.0 in
  let a_values = [ 3; 5; 9 ] and b_values = [ 4; 8 ] in
  let emitted = ref 0 in
  let reprs = ref [] in
  let visit pr =
    incr emitted;
    if not (List.exists (fun p -> p == pr) !reprs) then reprs := pr :: !reprs
  in
  let run () = Tau.iter_homogeneous tp ~a_values ~b_values visit in
  run ();
  (* warm *)
  emitted := 0;
  reprs := [];
  let w = words run in
  check_bool "enumerates a real pair space" true (!emitted > 50);
  (* The contract is per-emission reuse: every pair of a given length is
     the same physical scratch record, so the emission count never
     shows up in the allocation profile.  (An absolute budget on the
     whole call would mostly measure [is_good]'s arithmetic on
     rejected candidates, which both implementations pay.) *)
  check_bool
    (Printf.sprintf "%d emissions share %d scratch records" !emitted
       (List.length !reprs))
    true
    (* at most one scratch per admissible length k <= max_layers *)
    (List.length !reprs <= 9);
  check_bool (Printf.sprintf "call cost %d words" w) true (w < 8192)

(* The fig1 instance (c-d matched at weight 5; a-c, d-f at 4; b-c, d-e
   at 2) embedded in [n] vertices, the rest isolated, parametrized so
   the a-c-d-f path is capturable, with its cache at scale 8 (granule
   1). *)
let fig1_embedded n =
  let g0, m0 = Gen.paper_fig1 () in
  let g = G.create ~n (G.edge_list g0) in
  let m = M.of_edges n (M.edges m0) in
  let fig1_side = [| false; false; true; false; false; true |] in
  let side =
    Array.init n (fun v -> if v < 6 then fig1_side.(v) else v mod 2 = 0)
  in
  let gp = Layered.parametrize_with ~side g m in
  let tp = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  Layered.prepare tp gp ~scale:8.0

(* A build whose pair keeps no Y edge is decided by O(k) lookups in the
   prepared cache: it allocates nothing but its two-word [Trivial]
   result, however large the instance. *)
let test_layered_trivial_build_budget () =
  let cache = fig1_embedded 100_000 in
  (* b-bucket 31 matches no edge weight, so every Y edge is filtered
     and the build short-circuits to Trivial. *)
  let pair = { Tau.a = [| 0; 5; 0 |]; b = [| 31; 31 |] } in
  let run () =
    match Layered.build_opt cache pair with
    | Layered.Trivial _ -> ()
    | Layered.Graph _ -> Alcotest.fail "expected a trivial build"
  in
  run ();
  let w = words (fun () -> for _ = 1 to 100 do run () done) in
  check "100 trivial builds at n = 10^5 allocate only their results"
    (100 * 2) w

(* A non-trivial build allocates for the [L'] it returns — its edges,
   vertices and initial matching — and nothing that grows with the base
   graph: the same local shape costs the same at n = 10^3 and 10^5. *)
let test_layered_build_output_sensitive () =
  let pair = { Tau.a = [| 0; 5; 0 |]; b = [| 4; 4 |] } in
  let cost n =
    let cache = fig1_embedded n in
    let run () =
      match Layered.build_opt cache pair with
      | Layered.Graph lay -> check "a-c, c-d, d-f" 3 (Layered.edge_count lay)
      | Layered.Trivial _ -> Alcotest.fail "expected a layered graph"
    in
    run ();
    words run
  in
  let small = cost 1_000 and large = cost 100_000 in
  check_bool (Printf.sprintf "build costs %d words at n = 10^3" small) true
    (small < 1024);
  check "same words at n = 10^5" small large

(* A draw updates the generator state in place, unboxed: [int] and
   [bool] allocate nothing.  A [float] result is boxed on return unless
   the call is inlined, which cross-module inlining does in release
   builds and [-opaque] dev builds do not, so it may cost exactly its
   two-word box. *)
let test_prng_allocation_free () =
  let rng = P.create 7 in
  let draws name ~per_draw draw =
    draw ();
    let w = words (fun () -> for _ = 1 to 1000 do draw () done) in
    check_bool
      (Printf.sprintf "%s: 1000 draws cost %d words (<= %d each)" name w
         per_draw)
      true
      (w <= 1000 * per_draw)
  in
  draws "int" ~per_draw:0 (fun () -> ignore (P.int rng 1000));
  draws "bool" ~per_draw:0 (fun () -> ignore (P.bool rng));
  draws "float" ~per_draw:2 (fun () -> ignore (P.float rng 1.0))

(* Words allocated by [f ()] on either heap: arrays past the minor
   heap's size limit go straight to the major heap, which
   [Gc.minor_words] does not see.  [Gc.allocated_bytes] counts young
   words only when a minor collection flushes them, so a minor
   collection on each side of the call bills [f] exactly its own young
   words; the measurement's own cost, read on a no-op, is taken off. *)
let all_words f =
  let measure f =
    Gc.minor ();
    let a = Gc.allocated_bytes () in
    f ();
    Gc.minor ();
    Gc.allocated_bytes () -. a
  in
  let own = measure ignore in
  int_of_float ((measure f -. own) /. float (Sys.word_size / 8))

(* On a graph out of canonical order the digest buckets edges by min
   endpoint: an (n+1)-int offset array and an m-slot copy of the edge
   array.  On a canonical graph it hashes the edge array in place, and
   the result string is its only allocation: 16 hex digits are 2 words
   of bytes, a padding word and a header.  Per-edge tuples or per-byte
   Int64 boxes (the sort-based digest spent 84 words an edge) blow
   either budget. *)
let test_digest_allocation () =
  List.iter
    (fun n ->
      let g =
        Gen.power_law_scale (P.create 5) ~n ~attach:4
          ~weights:(Gen.Uniform (1, 1000))
      in
      let cost g =
        ignore (Wm_graph.Graph_io.digest g);
        all_words (fun () -> ignore (Wm_graph.Graph_io.digest g))
      in
      let w = cost g and budget = n + G.m g + 64 + 4 in
      check_bool
        (Printf.sprintf "n=%d m=%d: digest costs %d words (budget %d)" n
           (G.m g) w budget)
        true (w <= budget);
      let c = G.canonical g in
      check_bool "generator order is not canonical" true (c != g);
      let w = cost c in
      check_bool
        (Printf.sprintf "n=%d: canonical digest costs %d words (budget 4)" n w)
        true (w <= 4))
    [ 1_000; 10_000 ]

(* A served window patches a canonical session graph and never asks it
   for a neighbour, so a patch allocates its new edge array (m words and
   a header), its result record and per-delta-edge scratch: no CSR index
   (2m words for the packed slots, n for the offsets). *)
let test_patch_builds_no_index () =
  let base =
    G.canonical
      (Gen.power_law_scale (P.create 20191) ~n:10_000 ~attach:8
         ~weights:(Gen.Uniform (1, 100)))
  in
  let add = List.init 32 (fun i -> E.make (300 * i) (10_000 + i) 7) in
  let patch () = ignore (G.patch base ~add_vertices:32 ~add ()) in
  patch ();
  let w = all_words patch and budget = G.m base + 256 + (64 * 32) in
  check_bool
    (Printf.sprintf "m=%d: a 32-edge patch costs %d words (budget %d)"
       (G.m base) w budget)
    true (w <= budget)

(* The served load parses the serve-session base text (n = 10^4,
   m = 79,964) straight into a canonical graph.  It allocates 11 words
   an edge and n: four int columns (u, v, w, line), two slot orders, a
   4-word record and an edge-array slot, and n + 1 bucket counts.
   [Io_oracle.of_string], a list-and-Hashtbl parser, followed by
   [G.canonical]'s record copy takes 94 words an edge. *)
let serve_text =
  lazy
    (Wm_graph.Graph_io.to_string
       (Gen.power_law_scale (P.create 20191) ~n:10_000 ~attach:8
          ~weights:(Gen.Uniform (1, 100))))

let test_load_allocation () =
  let text = Lazy.force serve_text in
  let load () = ignore (Wm_graph.Graph_io.canonical_of_string text) in
  load ();
  let m = G.m (Wm_graph.Graph_io.canonical_of_string text) in
  let w = all_words load in
  check_bool
    (Printf.sprintf "m=%d: canonical_of_string costs %d words, %.2f an edge \
                     (budget 12)"
       m w
       (float w /. float m))
    true
    (w <= 12 * m)

(* [canonical_of_string] returns a canonical graph (its own canonical
   form, edges strictly increasing) whose index is not built: the first
   neighbour query builds it, 2m + n words and more, and a second query
   allocates nothing. *)
let prop_load_canonical_unindexed =
  QCheck2.Test.make ~name:"canonical_of_string: canonical, no index"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 200) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = P.create seed in
      let g = Gen.gnp rng ~n ~p:(P.float rng 0.3) ~weights:(Gen.Uniform (1, 50)) in
      let es = Array.copy (G.edges g) in
      P.shuffle_in_place rng es;
      let c =
        Wm_graph.Graph_io.canonical_of_string
          (Wm_graph.Graph_io.to_string (G.of_array ~n es))
      in
      let edges = G.edges c in
      let query () = ignore (G.degree c 0) in
      G.canonical c == c
      && Array.length edges = G.m g
      && Seq.for_all
           (fun i ->
             let a = edges.(i - 1) and b = edges.(i) in
             a.u < b.u || (a.u = b.u && a.v < b.v))
           (Seq.init (Stdlib.max 0 (G.m c - 1)) succ)
      && all_words query >= (2 * G.m c) + G.n c
      && all_words query = 0)

(* Its records are fresh, one allocation a slot, made in slot order: a
   slot's record sits right beside its neighbour's (4 words apart).  A
   minor collection mid-parse can move a few, so the test asks for 90%
   of neighbouring slots (about 99.9% are, OCaml 5.1). *)
let test_load_layout () =
  let c = Wm_graph.Graph_io.canonical_of_string (Lazy.force serve_text) in
  Gc.full_major ();
  let edges = G.edges c in
  (* A record's address in words: reading a pointer as an int halves it. *)
  let addr (e : E.t) : int = Obj.magic e in
  let adjacent = ref 0 in
  for i = 1 to Array.length edges - 1 do
    if abs (addr edges.(i) - addr edges.(i - 1)) * 2 = 4 * (Sys.word_size / 8)
    then incr adjacent
  done;
  let pairs = Array.length edges - 1 in
  check_bool
    (Printf.sprintf "%d of %d neighbouring slots hold adjacent records"
       !adjacent pairs)
    true
    (10 * !adjacent >= 9 * pairs)

(* ------------------------------------------------------------------ *)
(* Canonical tie-breaking *)

(* Greedy.by_weight depends on the edge set only: ties break on (u, v),
   so a shuffled copy of a graph gets the identical matching, and both
   equal greedy over a comparison sort on (weight desc, u, v). *)
let test_greedy_order_free () =
  let g =
    Gen.power_law_scale (P.create 3) ~n:2000 ~attach:4
      ~weights:(Gen.Uniform (1, 20))
  in
  let shuffled = Array.copy (G.edges g) in
  P.shuffle_in_place (P.create 9) shuffled;
  let reference =
    let m = M.create (G.n g) in
    List.iter
      (fun e -> ignore (M.try_add m e))
      (List.sort
         (fun (a : E.t) (b : E.t) -> compare (b.w, a.u, a.v) (a.w, b.u, b.v))
         (G.edge_list g));
    m
  in
  let edges m = List.sort E.compare (M.edges m) in
  let greedy g = edges (Wm_algos.Greedy.by_weight g) in
  check_bool "shuffled copy, same matching" true
    (greedy g = greedy (G.of_array ~n:(G.n g) shuffled));
  check_bool "(weight desc, u, v) order" true (greedy g = edges reference)

let test_canonical_key_path_reversal () =
  let p1 = A.Path [ E.make 0 1 5; E.make 1 2 3 ] in
  let p2 = A.Path [ E.make 1 2 3; E.make 0 1 5 ] in
  check_bool "reversed presentation, same key" true
    (A.canonical_key p1 = A.canonical_key p2);
  let q = A.Path [ E.make 2 3 5 ] in
  check_bool "distinct paths, distinct keys" true
    (A.canonical_key p1 <> A.canonical_key q)

let test_canonical_key_cycle_rotation () =
  let e01 = E.make 0 1 2
  and e12 = E.make 1 2 7
  and e23 = E.make 2 3 2
  and e30 = E.make 3 0 7 in
  let c1 = A.Cycle [ e01; e12; e23; e30 ] in
  let c2 = A.Cycle [ e12; e23; e30; e01 ] in
  let c3 = A.Cycle [ e30; e23; e12; e01 ] in
  check_bool "rotated, same key" true (A.canonical_key c1 = A.canonical_key c2);
  check_bool "reversed orientation, same key" true
    (A.canonical_key c1 = A.canonical_key c3)

(* Equal-gain one-augmentations must come out in canonical-key order
   regardless of the instance's edge presentation: the gain sort alone
   left the order to the enumeration, which made transcripts depend on
   graph construction order. *)
let test_one_augmentations_tie_break () =
  let edges_fwd = [ E.make 0 1 5; E.make 2 3 5 ] in
  let edges_rev = [ E.make 2 3 5; E.make 0 1 5 ] in
  let first_edge g =
    match AC.one_augmentations g (M.create 4) with
    | A.Path [ e ] :: _ -> e
    | _ -> Alcotest.fail "expected single-edge path augmentations"
  in
  let e1 = first_edge (G.create ~n:4 edges_fwd) in
  let e2 = first_edge (G.create ~n:4 edges_rev) in
  check_bool "presentation-independent winner" true (E.equal e1 e2);
  (* And the winner is the canonically least walk, 0-1. *)
  check_bool "canonical winner" true (E.equal e1 (E.make 0 1 5))

(* ------------------------------------------------------------------ *)
(* Stable weight-ordered arrangement (the radix sort) *)

let collect stream =
  let out = ref [] in
  ES.iter stream (fun e -> out := e :: !out);
  List.rev !out

let test_arrange_matches_stable_sort () =
  (* Few distinct weights force heavy ties, so stability is load-bearing
     in the expected sequence; the wider ranges take two and three radix
     passes, the first crossing the 11-bit digit boundary. *)
  List.iter
    (fun (lo, hi) ->
      let g = Gen.gnp (P.create 3) ~n:120 ~p:0.05 ~weights:(Gen.Uniform (lo, hi)) in
      let given = collect (ES.of_graph g) in
      let incr_got = collect (ES.of_graph ~order:ES.Increasing_weight g) in
      let decr_got = collect (ES.of_graph ~order:ES.Decreasing_weight g) in
      let by f = List.stable_sort (fun a b -> Stdlib.compare (f a) (f b)) given in
      check_bool "nontrivial instance" true (List.length given > 200);
      check_bool "increasing = stable sort" true
        (List.equal E.equal incr_got (by E.weight));
      check_bool "decreasing = stable reverse sort" true
        (List.equal E.equal decr_got (by (fun e -> -E.weight e)));
      check_bool "graph order untouched" true (List.equal E.equal given (G.edge_list g)))
    [ (1, 4); (2046, 2050); (1, 1 lsl 23) ]

(* ------------------------------------------------------------------ *)
(* Scale-tier generator validity *)

let check_simple_graph ?bip_left g =
  let n = G.n g in
  let seen = Hashtbl.create (G.m g) in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      check_bool "endpoint range" true (u >= 0 && u < n && v >= 0 && v < n);
      check_bool "no self-loop" true (u <> v);
      check_bool "positive weight" true (E.weight e >= 1);
      let key = (Stdlib.min u v * n) + Stdlib.max u v in
      check_bool "no duplicate edge" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ();
      match bip_left with
      | None -> ()
      | Some left ->
          check_bool "crosses the bipartition" true
            ((u < left) <> (v < left)))
    g;
  check "edge count consistent" (G.m g) (Hashtbl.length seen)

let test_power_law_scale_valid () =
  let g =
    Gen.power_law_scale (P.create 7) ~n:2000 ~attach:6
      ~weights:(Gen.Geometric_classes 8)
  in
  check "vertex count" 2000 (G.n g);
  check_bool "roughly attach*n edges" true (G.m g > 5 * 2000 && G.m g <= 6 * 2000);
  check_simple_graph g

let test_geometric_scale_valid () =
  let g =
    Gen.geometric_scale (P.create 8) ~n:2000 ~avg_degree:10.0
      ~weights:(Gen.Uniform (1, 100))
  in
  check "vertex count" 2000 (G.n g);
  (* Expected degree 10 with Poisson-like spread. *)
  let avg = 2.0 *. float_of_int (G.m g) /. 2000.0 in
  check_bool (Printf.sprintf "average degree %.1f near 10" avg) true
    (avg > 5.0 && avg < 20.0);
  check_simple_graph g

let test_bipartite_skew_scale_valid () =
  let g =
    Gen.bipartite_skew_scale (P.create 9) ~left:1000 ~right:1000 ~edges:8000
      ~exponent:1.5
      ~weights:(Gen.Uniform (1, 50))
  in
  check "vertex count" 2000 (G.n g);
  check "exact edge count" 8000 (G.m g);
  check_simple_graph ~bip_left:1000 g

(* Scale generators must be a pure function of the seed — the T11 rows
   and the @scale-smoke fixtures rely on it.  The digest is pinned to a
   constant, so a change to either the generator or the digest's fed
   bytes fails here directly. *)
let test_scale_generators_deterministic () =
  let dig () =
    Wm_graph.Graph_io.digest
      (Gen.power_law_scale (P.create 21) ~n:1000 ~attach:5
         ~weights:(Gen.Uniform (1, 9)))
  in
  Alcotest.(check string) "same seed, same graph" "05e80e89cfc40a19" (dig ());
  Alcotest.(check string) "again" "05e80e89cfc40a19" (dig ())

let () =
  Alcotest.run "perf"
    [
      ( "arena",
        [
          Alcotest.test_case "stamp semantics" `Quick test_stamp;
          Alcotest.test_case "stamp reset is O(1)" `Quick
            test_stamp_reset_allocation_free;
          Alcotest.test_case "ints semantics" `Quick test_ints;
          Alcotest.test_case "ints push allocation-free" `Quick
            test_ints_push_allocation_free;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "iter_neighbors" `Quick test_iter_neighbors_budget;
          Alcotest.test_case "tau iterator" `Quick test_iter_homogeneous_budget;
          Alcotest.test_case "layered trivial build" `Quick
            test_layered_trivial_build_budget;
          Alcotest.test_case "layered build output-sensitive" `Quick
            test_layered_build_output_sensitive;
          Alcotest.test_case "prng draws allocation-free" `Quick
            test_prng_allocation_free;
          Alcotest.test_case "digest is linear and allocation-lean" `Quick
            test_digest_allocation;
          Alcotest.test_case "patch builds no index" `Quick
            test_patch_builds_no_index;
          Alcotest.test_case "served load allocation" `Quick
            test_load_allocation;
          QCheck_alcotest.to_alcotest prop_load_canonical_unindexed;
          Alcotest.test_case "served load record layout" `Quick
            test_load_layout;
        ] );
      ( "tie-break",
        [
          Alcotest.test_case "path key reversal-invariant" `Quick
            test_canonical_key_path_reversal;
          Alcotest.test_case "cycle key rotation-invariant" `Quick
            test_canonical_key_cycle_rotation;
          Alcotest.test_case "one_augmentations canonical order" `Quick
            test_one_augmentations_tie_break;
          Alcotest.test_case "greedy by weight is order-free" `Quick
            test_greedy_order_free;
        ] );
      ( "arrange",
        [
          Alcotest.test_case "radix = stable sort" `Quick
            test_arrange_matches_stable_sort;
        ] );
      ( "scale-gen",
        [
          Alcotest.test_case "power-law valid" `Quick test_power_law_scale_valid;
          Alcotest.test_case "geometric valid" `Quick test_geometric_scale_valid;
          Alcotest.test_case "bip-skew valid" `Quick
            test_bipartite_skew_scale_valid;
          Alcotest.test_case "seed-deterministic" `Quick
            test_scale_generators_deterministic;
        ] );
    ]

(* Simulated memory, page placement policies, and the chunk pool. *)

open Sim_mem

let mk_mem () = Memory.create ~n_nodes:4 ~capacity_bytes:(1 lsl 20) ~page_bytes:4096

let test_memory_rw () =
  let m = mk_mem () in
  Memory.map_pages m ~first_page:1 ~n_pages:2 ~node_of_page:(fun _ -> 0);
  Memory.set m 4096 0x1234;
  Alcotest.(check int) "read back" 0x1234 (Memory.get m 4096);
  Alcotest.(check int) "fresh pages zeroed" 0 (Memory.get m 4104);
  Memory.set m 4096 (-7);
  Alcotest.(check int64) "tagged words sign-extend" (-7L) (Memory.get_raw m 4096);
  Memory.set_float m 4104 (-2.5);
  Alcotest.(check (float 0.)) "float" (-2.5) (Memory.get_float m 4104);
  Alcotest.(check int64) "float bits" (Int64.bits_of_float (-2.5))
    (Memory.get_raw m 4104);
  (* Odd words must survive the 63-bit tagged view; even ones truncate. *)
  Memory.set_raw m 4112 0x4000_0000_0000_0001L;
  Alcotest.check_raises "odd overflow"
    (Invalid_argument "Memory.get: odd word overflows a tagged int") (fun () ->
      ignore (Memory.get m 4112));
  Memory.set_raw m 4112 0x8000_0000_0000_0008L;
  Alcotest.(check int) "even truncates" 8 (Memory.get m 4112);
  Memory.copy_words m ~src:4096 ~dst:4120 ~words:3;
  Alcotest.(check int64) "copy keeps all bits" 0x8000_0000_0000_0008L
    (Memory.get_raw m 4136)

let test_memory_node_lookup () =
  let m = mk_mem () in
  Memory.map_pages m ~first_page:1 ~n_pages:4 ~node_of_page:(fun p -> p mod 4);
  Alcotest.(check int) "page1" 1 (Memory.node_of_addr m 4096);
  Alcotest.(check int) "page2" 2 (Memory.node_of_addr m 8192);
  Alcotest.check_raises "unmapped"
    (Invalid_argument "Memory.node_of_addr: unmapped page") (fun () ->
      ignore (Memory.node_of_addr m (100 * 4096)))

let test_memory_unmap () =
  let m = mk_mem () in
  Memory.map_pages m ~first_page:1 ~n_pages:1 ~node_of_page:(fun _ -> 2);
  Alcotest.(check int) "node bytes" 4096 (Memory.node_bytes m ~node:2);
  Memory.unmap_pages m ~first_page:1 ~n_pages:1;
  Alcotest.(check int) "freed" 0 (Memory.node_bytes m ~node:2);
  Alcotest.(check bool) "unmapped" false (Memory.is_mapped m 4096)

let test_double_map_rejected () =
  let m = mk_mem () in
  Memory.map_pages m ~first_page:1 ~n_pages:1 ~node_of_page:(fun _ -> 0);
  Alcotest.check_raises "double map"
    (Invalid_argument "Memory.map_pages: page already mapped") (fun () ->
      Memory.map_pages m ~first_page:1 ~n_pages:1 ~node_of_page:(fun _ -> 0))

let test_policy_local () =
  List.iter
    (fun p ->
      Alcotest.(check int) "local" 3
        (Page_policy.node_for_page Page_policy.Local ~n_nodes:8 ~requester_node:3
           ~abs_page:p))
    [ 0; 1; 17; 123 ]

let test_policy_interleaved () =
  let nodes =
    List.map
      (fun p ->
        Page_policy.node_for_page Page_policy.Interleaved ~n_nodes:4
          ~requester_node:0 ~abs_page:p)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3; 0; 1 ] nodes

let test_policy_single () =
  Alcotest.(check int) "single" 0
    (Page_policy.node_for_page (Page_policy.Single_node 0) ~n_nodes:8
       ~requester_node:5 ~abs_page:99);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Page_policy: single node out of range") (fun () ->
      ignore
        (Page_policy.node_for_page (Page_policy.Single_node 9) ~n_nodes:8
           ~requester_node:0 ~abs_page:0))

let test_policy_parse () =
  let ok s p =
    match Page_policy.of_string s with
    | Ok q -> Alcotest.(check bool) s true (Page_policy.equal p q)
    | Error e -> Alcotest.fail e
  in
  ok "local" Page_policy.Local;
  ok "interleaved" Page_policy.Interleaved;
  ok "single-node" (Page_policy.Single_node 0);
  ok "single-node:3" (Page_policy.Single_node 3);
  Alcotest.(check bool) "bad" true (Result.is_error (Page_policy.of_string "zebra"))

let test_page_alloc_local () =
  let m = mk_mem () in
  let pa = Page_alloc.create m in
  let a = Page_alloc.alloc pa ~policy:Page_policy.Local ~requester_node:2 ~bytes:8192 in
  Alcotest.(check bool) "nonzero" true (a > 0);
  Alcotest.(check int) "on node 2" 2 (Memory.node_of_addr m a);
  Alcotest.(check int) "second page too" 2 (Memory.node_of_addr m (a + 4096));
  Alcotest.(check int) "allocated" 8192 (Page_alloc.allocated_bytes pa)

let test_page_alloc_interleaved_spreads () =
  let m = mk_mem () in
  let pa = Page_alloc.create m in
  let a =
    Page_alloc.alloc pa ~policy:Page_policy.Interleaved ~requester_node:0
      ~bytes:(4 * 4096)
  in
  let nodes = List.init 4 (fun i -> Memory.node_of_addr m (a + (i * 4096))) in
  Alcotest.(check (list int)) "all four nodes"
    [ 0; 1; 2; 3 ]
    (List.sort compare nodes)

let test_page_alloc_reuse () =
  let m = mk_mem () in
  let pa = Page_alloc.create m in
  let a = Page_alloc.alloc pa ~policy:Page_policy.Local ~requester_node:1 ~bytes:4096 in
  Page_alloc.free pa ~addr:a ~bytes:4096;
  Alcotest.(check int) "empty again" 0 (Page_alloc.allocated_bytes pa);
  let b = Page_alloc.alloc pa ~policy:Page_policy.Local ~requester_node:3 ~bytes:4096 in
  Alcotest.(check int) "same region recycled" a b;
  Alcotest.(check int) "remapped to new requester" 3 (Memory.node_of_addr m b)

let test_page_alloc_oom () =
  let m = Memory.create ~n_nodes:1 ~capacity_bytes:(4 * 4096) ~page_bytes:4096 in
  let pa = Page_alloc.create m in
  ignore (Page_alloc.alloc pa ~policy:Page_policy.Local ~requester_node:0 ~bytes:(3 * 4096));
  Alcotest.check_raises "oom" Out_of_memory (fun () ->
      ignore
        (Page_alloc.alloc pa ~policy:Page_policy.Local ~requester_node:0 ~bytes:8192))

let mk_pool () =
  let m = Memory.create ~n_nodes:4 ~capacity_bytes:(1 lsl 21) ~page_bytes:4096 in
  let pa = Page_alloc.create m in
  (m, Chunk.create_pool pa ~chunk_bytes:8192)

let test_chunk_acquire_bump () =
  let _, pool = mk_pool () in
  let c, prov = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:1 in
  Alcotest.(check bool) "fresh" true (prov = `Fresh);
  Alcotest.(check int) "home node" 1 c.Chunk.home_node;
  Alcotest.(check int) "free" 8192 (Chunk.free_bytes c);
  let a = Chunk.bump c 100 in
  Alcotest.(check int) "base" c.Chunk.base a;
  Alcotest.(check int) "rounded" (8192 - 104) (Chunk.free_bytes c);
  Alcotest.check_raises "overflow" (Invalid_argument "Chunk.bump: chunk full")
    (fun () -> ignore (Chunk.bump c 9000))

let test_chunk_affinity_reuse () =
  let _, pool = mk_pool () in
  let c1, _ = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:2 in
  let c3, _ = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:3 in
  Chunk.release pool c1;
  Chunk.release pool c3;
  (* Node 3 asks again: must get its own chunk back, not node 2's. *)
  let c, prov = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:3 in
  Alcotest.(check bool) "reused" true (prov = `Reused);
  Alcotest.(check int) "affinity preserved" 3 c.Chunk.home_node;
  Alcotest.(check int) "identity" c3.Chunk.id c.Chunk.id

let test_chunk_in_use_accounting () =
  let _, pool = mk_pool () in
  let c1, _ = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:0 in
  let _c2, _ = Chunk.acquire pool ~policy:Page_policy.Local ~requester_node:0 in
  Alcotest.(check int) "two in use" (2 * 8192) (Chunk.in_use_bytes pool);
  Chunk.release pool c1;
  Alcotest.(check int) "one left" 8192 (Chunk.in_use_bytes pool);
  Alcotest.(check int) "one free" 1 (Chunk.free_count pool)

let prop_interleave_balanced =
  QCheck.Test.make ~name:"interleaved placement is balanced" ~count:50
    QCheck.(int_range 2 8)
    (fun n_nodes ->
      let counts = Array.make n_nodes 0 in
      for p = 0 to (n_nodes * 10) - 1 do
        let node =
          Page_policy.node_for_page Page_policy.Interleaved ~n_nodes
            ~requester_node:0 ~abs_page:p
        in
        counts.(node) <- counts.(node) + 1
      done;
      Array.for_all (fun c -> c = 10) counts)

let suite =
  ( "sim_mem",
    [
      Alcotest.test_case "memory read/write" `Quick test_memory_rw;
      Alcotest.test_case "node lookup" `Quick test_memory_node_lookup;
      Alcotest.test_case "unmap" `Quick test_memory_unmap;
      Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
      Alcotest.test_case "policy: local" `Quick test_policy_local;
      Alcotest.test_case "policy: interleaved" `Quick test_policy_interleaved;
      Alcotest.test_case "policy: single node" `Quick test_policy_single;
      Alcotest.test_case "policy: parse" `Quick test_policy_parse;
      Alcotest.test_case "page alloc: local" `Quick test_page_alloc_local;
      Alcotest.test_case "page alloc: interleave spreads" `Quick
        test_page_alloc_interleaved_spreads;
      Alcotest.test_case "page alloc: reuse remaps" `Quick test_page_alloc_reuse;
      Alcotest.test_case "page alloc: oom" `Quick test_page_alloc_oom;
      Alcotest.test_case "chunk: acquire and bump" `Quick test_chunk_acquire_bump;
      Alcotest.test_case "chunk: node-affine reuse" `Quick test_chunk_affinity_reuse;
      Alcotest.test_case "chunk: in-use accounting" `Quick test_chunk_in_use_accounting;
      QCheck_alcotest.to_alcotest prop_interleave_balanced;
    ] )

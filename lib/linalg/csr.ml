type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

let of_triplets ~rows ~cols entries =
  if rows < 0 || cols < 0 then invalid_arg "Csr.of_triplets: negative size";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_triplets: (%d,%d) out of bounds for %dx%d"
             i j rows cols))
    entries;
  (* Sum duplicates via per-row association tables, then pack. *)
  let row_tbls = Array.init rows (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun (i, j, v) ->
      let tbl = row_tbls.(i) in
      let cur = try Hashtbl.find tbl j with Not_found -> 0. in
      Hashtbl.replace tbl j (cur +. v))
    entries;
  let row_lists =
    Array.map
      (fun tbl ->
        Hashtbl.fold (fun j v acc -> if v = 0. then acc else (j, v) :: acc)
          tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b))
      row_tbls
  in
  let nnz = Array.fold_left (fun acc l -> acc + List.length l) 0 row_lists in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0. in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !k;
    List.iter
      (fun (j, v) ->
        col_idx.(!k) <- j;
        values.(!k) <- v;
        incr k)
      row_lists.(i)
  done;
  row_ptr.(rows) <- !k;
  { rows; cols; row_ptr; col_idx; values }

let of_dense m =
  let entries = ref [] in
  for i = Mat.rows m - 1 downto 0 do
    for j = Mat.cols m - 1 downto 0 do
      let v = Mat.unsafe_get m i j in
      if v <> 0. then entries := (i, j, v) :: !entries
    done
  done;
  of_triplets ~rows:(Mat.rows m) ~cols:(Mat.cols m) !entries

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.values

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Csr.get: out of bounds";
  let rec find k stop =
    if k >= stop then 0.
    else if m.col_idx.(k) = j then m.values.(k)
    else if m.col_idx.(k) > j then 0.
    else find (k + 1) stop
  in
  find m.row_ptr.(i) m.row_ptr.(i + 1)

(* Dual-build row kernel (see Kernel): the unsafe variant also lifts
   the row_ptr reads and dst store out of the bounds checker — the
   checked twin runs the identical accumulation. *)
let matvec_rows_unsafe m x dst lo hi =
  let row_ptr = m.row_ptr and col_idx = m.col_idx and values = m.values in
  for i = lo to hi - 1 do
    let stop = Array.unsafe_get row_ptr (i + 1) - 1 in
    let acc = ref 0. in
    for k = Array.unsafe_get row_ptr i to stop do
      acc :=
        !acc
        +. Array.unsafe_get values k
           *. Array.unsafe_get x (Array.unsafe_get col_idx k)
    done;
    Array.unsafe_set dst i !acc
  done

let matvec_rows_checked m x dst lo hi =
  for i = lo to hi - 1 do
    let acc = ref 0. in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    dst.(i) <- !acc
  done

let matvec_rows =
  if Kernel.checked then matvec_rows_checked else matvec_rows_unsafe

let matvec_into ?pool m x ~dst =
  if Array.length x <> m.cols then
    invalid_arg "Csr.matvec_into: dimension mismatch";
  if Array.length dst <> m.rows then
    invalid_arg "Csr.matvec_into: destination dimension mismatch";
  if dst == x && Array.length m.values > 0 then
    invalid_arg "Csr.matvec_into: dst must not alias x";
  match pool with
  | Some p ->
      (* Row-partitioned: every row owns its dst slot and accumulates in
         the same order as the sequential loop, so the result is
         bit-identical under any chunking — which licenses the
         cost-weighted grain (chunk count sized by nnz, one inline chunk
         when the product is too small to amortize a dispatch). *)
      Tmest_parallel.Pool.iter_grained p ~n:m.rows
        ~cost:(Array.length m.values)
        (fun ~lo ~hi -> matvec_rows m x dst lo hi)
  | None -> matvec_rows m x dst 0 m.rows

let matvec ?pool m x =
  if Array.length x <> m.cols then invalid_arg "Csr.matvec: dimension mismatch";
  let y = Array.make m.rows 0. in
  matvec_into ?pool m x ~dst:y;
  y

(* Transpose apply scatters into dst, so it stays sequential (rows
   racing on shared dst slots would break bit-identity); only the
   indexing differs between the two builds. *)
let tmatvec_rows_unsafe m x dst =
  let row_ptr = m.row_ptr and col_idx = m.col_idx and values = m.values in
  for i = 0 to m.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then begin
      let stop = Array.unsafe_get row_ptr (i + 1) - 1 in
      for k = Array.unsafe_get row_ptr i to stop do
        let j = Array.unsafe_get col_idx k in
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. (xi *. Array.unsafe_get values k))
      done
    end
  done

let tmatvec_rows_checked m x dst =
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        let j = m.col_idx.(k) in
        dst.(j) <- dst.(j) +. (xi *. m.values.(k))
      done
  done

let tmatvec_rows =
  if Kernel.checked then tmatvec_rows_checked else tmatvec_rows_unsafe

let tmatvec_into m x ~dst =
  if Array.length x <> m.rows then
    invalid_arg "Csr.tmatvec_into: dimension mismatch";
  if Array.length dst <> m.cols then
    invalid_arg "Csr.tmatvec_into: destination dimension mismatch";
  if dst == x && Array.length m.values > 0 then
    invalid_arg "Csr.tmatvec_into: dst must not alias x";
  Array.fill dst 0 m.cols 0.;
  tmatvec_rows m x dst

let tmatvec m x =
  if Array.length x <> m.rows then
    invalid_arg "Csr.tmatvec: dimension mismatch";
  let y = Array.make m.cols 0. in
  tmatvec_into m x ~dst:y;
  y

(* Fused normal-equations apply dst = Mᵀ(Mx) through a caller-owned
   link-length buffer: the one kernel the matrix-free Gram operators
   run per solver iteration.  The forward half is pooled (grained by
   nnz); the transpose half scatters sequentially.  Bit-identical to
   [matvec_into] + [tmatvec_into] — it is exactly those kernels minus
   the per-call closure indirection. *)
let normal_apply_into ?pool m x ~link ~dst =
  if Array.length x <> m.cols then
    invalid_arg "Csr.normal_apply_into: dimension mismatch";
  if Array.length link <> m.rows then
    invalid_arg "Csr.normal_apply_into: link buffer dimension mismatch";
  if Array.length dst <> m.cols then
    invalid_arg "Csr.normal_apply_into: destination dimension mismatch";
  if (link == x || link == dst) && Array.length m.values > 0 then
    invalid_arg "Csr.normal_apply_into: link must not alias x or dst";
  (match pool with
  | Some p ->
      Tmest_parallel.Pool.iter_grained p ~n:m.rows
        ~cost:(Array.length m.values)
        (fun ~lo ~hi -> matvec_rows m x link lo hi)
  | None -> matvec_rows m x link 0 m.rows);
  Array.fill dst 0 m.cols 0.;
  tmatvec_rows m link dst

(* Exact diagonal of the Gram matrix AᵀA: (AᵀA)_jj = Σ_i A_ij², one
   pass over the stored entries.  This is what makes Jacobi
   preconditioners exact and O(nnz) — no Hutchinson sampling needed. *)
let col_sq_norms m =
  let d = Array.make m.cols 0. in
  for k = 0 to Array.length m.values - 1 do
    let j = Array.unsafe_get m.col_idx k in
    let v = Array.unsafe_get m.values k in
    Array.unsafe_set d j (Array.unsafe_get d j +. (v *. v))
  done;
  d

let to_dense m =
  let d = Mat.zeros m.rows m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Mat.unsafe_set d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

let row_nonzeros m i =
  if i < 0 || i >= m.rows then invalid_arg "Csr.row_nonzeros: out of bounds";
  let acc = ref [] in
  for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
    acc := (m.col_idx.(k), m.values.(k)) :: !acc
  done;
  !acc

let iter_row m i f =
  if i < 0 || i >= m.rows then invalid_arg "Csr.iter_row: out of bounds";
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let transpose m =
  let entries = ref [] in
  for i = m.rows - 1 downto 0 do
    for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
      entries := (m.col_idx.(k), i, m.values.(k)) :: !entries
    done
  done;
  of_triplets ~rows:m.cols ~cols:m.rows !entries

let gram m =
  let g = Mat.zeros m.cols m.cols in
  for i = 0 to m.rows - 1 do
    for k1 = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j1 = m.col_idx.(k1) and v1 = m.values.(k1) in
      for k2 = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        let j2 = m.col_idx.(k2) in
        Mat.unsafe_set g j1 j2
          (Mat.unsafe_get g j1 j2 +. (v1 *. m.values.(k2)))
      done
    done
  done;
  g

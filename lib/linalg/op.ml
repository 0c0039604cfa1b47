(* Matrix-free linear operators.

   An operator is just a pair of destination-passing closures for [A x]
   and [Aᵀ y] plus its shape.  The solver stack works against this
   interface so that large instances (10⁴–10⁵ OD pairs) never have to
   materialize a dense routing matrix or Gram matrix: CSR-backed
   operators apply in O(nnz).

   Operators are single-caller: one may close over a scratch buffer
   (the workspace's normal-equations operator does), so a given
   operator value must not be applied concurrently from several
   domains.  (Parallelism lives *inside* an application — pooled CSR
   matvecs — not across them.) *)

type t = {
  rows : int;
  cols : int;
  apply_into : Vec.t -> dst:Vec.t -> unit;
  apply_t_into : Vec.t -> dst:Vec.t -> unit;
}

let make ~rows ~cols ~apply_into ~apply_t_into =
  if rows < 0 || cols < 0 then invalid_arg "Op.make: negative dimension";
  { rows; cols; apply_into; apply_t_into }

let check_apply t x ~dst =
  if Vec.dim x <> t.cols then invalid_arg "Op.apply: dimension mismatch";
  if Vec.dim dst <> t.rows then invalid_arg "Op.apply: dst dimension mismatch"

let check_apply_t t y ~dst =
  if Vec.dim y <> t.rows then invalid_arg "Op.apply_t: dimension mismatch";
  if Vec.dim dst <> t.cols then
    invalid_arg "Op.apply_t: dst dimension mismatch"

let apply_into t x ~dst =
  check_apply t x ~dst;
  t.apply_into x ~dst

let apply_t_into t y ~dst =
  check_apply_t t y ~dst;
  t.apply_t_into y ~dst

let apply t x =
  let dst = Vec.zeros t.rows in
  apply_into t x ~dst;
  dst

let apply_t t y =
  let dst = Vec.zeros t.cols in
  apply_t_into t y ~dst;
  dst

let of_csr ?pool m =
  make ~rows:(Csr.rows m) ~cols:(Csr.cols m)
    ~apply_into:(fun x ~dst -> Csr.matvec_into ?pool m x ~dst)
    ~apply_t_into:(fun y ~dst -> Csr.tmatvec_into m y ~dst)

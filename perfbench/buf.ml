(* A growable array (the stdlib has Dynarray only from OCaml 5.2). *)

type 'a t = { mutable a : 'a array; mutable n : int }

let create () = { a = [||]; n = 0 }
let length b = b.n
let get b i = b.a.(i)
let to_array b = Array.sub b.a 0 b.n

(* Append [x]; returns its index. *)
let push b x =
  if b.n = Array.length b.a then begin
    let grown = Array.make (max 64 (2 * b.n)) x in
    Array.blit b.a 0 grown 0 b.n;
    b.a <- grown
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1;
  b.n - 1

(* The traced run's ledger: folds a Crusade_util.Trace sink by span
   name into count, total and self seconds as events are emitted
   (through Trace.on_event), so nothing is re-read at the end.

   Spans nest per emitting domain; a span's self time is its duration
   minus the time covered by its direct children.  The benchmark's own
   spans go into the same sink with an [op] id (one per synthesis,
   repair event or request) and the name of their parent span. *)

module Trace = Crusade_util.Trace

type acc = { mutable count : int; mutable total_us : float; mutable self_us : float }
type frame = { name : string; start : float; mutable child : float }

type t = {
  sink : Trace.t;
  spans : (string, acc) Hashtbl.t;
  stacks : (int, frame list) Hashtbl.t;  (* open spans per domain *)
}

let acc t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_us = 0.0; self_us = 0.0 } in
      Hashtbl.add t.spans name a;
      a

let fold t (v : Trace.view) =
  let stack = Option.value (Hashtbl.find_opt t.stacks v.Trace.v_tid) ~default:[] in
  match v.Trace.v_phase with
  | "B" ->
      Hashtbl.replace t.stacks v.Trace.v_tid
        ({ name = v.Trace.v_name; start = v.Trace.v_ts; child = 0.0 } :: stack)
  | "E" -> (
      match stack with
      | f :: rest ->
          let dur = v.Trace.v_ts -. f.start in
          let a = acc t f.name in
          a.count <- a.count + 1;
          a.total_us <- a.total_us +. dur;
          a.self_us <- a.self_us +. dur -. f.child;
          (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ());
          Hashtbl.replace t.stacks v.Trace.v_tid rest
      | [] -> ())
  | _ -> ()

let create () =
  let t =
    { sink = Trace.create (); spans = Hashtbl.create 64; stacks = Hashtbl.create 4 }
  in
  Trace.on_event t.sink (fold t);
  t

(* A benchmark span around a call into one layer's public function. *)
let span t ~op ~parent name f =
  Trace.span (Some t.sink)
    ~args:[ ("op", Trace.Num op); ("parent", Trace.Str parent) ]
    name f

let count t name = match Hashtbl.find_opt t.spans name with Some a -> a.count | None -> 0

let total_s t name =
  match Hashtbl.find_opt t.spans name with Some a -> a.total_us /. 1e6 | None -> 0.0

let self_s t name =
  match Hashtbl.find_opt t.spans name with Some a -> a.self_us /. 1e6 | None -> 0.0

(* Self seconds summed over every span except [root]: the part of the
   root's wall time that some layer or benchmark span accounts for. *)
let covered_s t ~root =
  Hashtbl.fold
    (fun name a s -> if name = root then s else s +. (a.self_us /. 1e6))
    t.spans 0.0

(* Span totals sorted by self time, for the human-readable ledger. *)
let rows t =
  Hashtbl.fold (fun name a l -> (name, a.count, a.total_us /. 1e6, a.self_us /. 1e6) :: l) t.spans []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let write t path = Trace.write_file t.sink path

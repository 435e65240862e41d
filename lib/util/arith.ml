let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a = 0 || b = 0 then 0
  else begin
    let g = gcd a b in
    let q = a / g in
    (* Exact pre-multiplication check: [q * b] fits iff [q <= max_int / b]. *)
    if q > max_int / b then failwith "Arith.lcm: hyperperiod overflow"
    else q * b
  end

let lcm_list = function
  | [] -> invalid_arg "Arith.lcm_list: empty list"
  | p :: rest -> List.fold_left lcm p rest

let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

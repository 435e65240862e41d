(* A keep-alive HTTP/1.1 client over one loopback connection: what the
   serve-mix workload needs against crusade_serve, whose responses
   always carry a Content-Length body (no chunked encoding). *)

type t = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

(* Closes the socket too. *)
let close t = close_in_noerr t.ic

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* [call t meth path body] sends one request and returns the status
   code and the body of the response. *)
let call t meth path body =
  write_all t.fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" meth path
       (String.length body) body)
    0;
  let line () = String.trim (input_line t.ic) in
  let status = Scanf.sscanf (line ()) "HTTP/1.1 %d" Fun.id in
  let rec headers length =
    match line () with
    | "" -> length
    | h -> (
        match String.index_opt h ':' with
        | Some i when String.lowercase_ascii (String.sub h 0 i) = "content-length" ->
            headers (int_of_string (String.trim (String.sub h (i + 1) (String.length h - i - 1))))
        | _ -> headers length)
  in
  let length = headers 0 in
  (status, really_input_string t.ic length)

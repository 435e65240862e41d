(* crusade-serve — synthesis as a service.

     crusade_serve --port 8080
     crusade_serve --port 0            # ephemeral port, printed on stdout

   The server runs in the foreground; the listening address is printed
   once the socket is bound, so scripts can start it in the background
   and scrape the port. *)

module S = Crusade_serve.Server

open Cmdliner

let addr_arg =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "Port to listen on (0 picks an ephemeral port)." in
  Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let max_in_flight_arg =
  let doc = "Jobs synthesizing concurrently on the shared domain pool." in
  Arg.(value & opt int 2 & info [ "max-in-flight" ] ~docv:"N" ~doc)

let queue_cap_arg =
  let doc = "Admitted-but-waiting job bound; submissions past it get 503." in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Default domains a job's portfolio trajectories spread over (a job's \
     own $(b,jobs) option overrides it)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let run addr port max_in_flight queue_cap jobs =
  if max_in_flight <= 0 then begin
    prerr_endline "--max-in-flight must be positive";
    1
  end
  else begin
    let base = S.default_config () in
    let cfg =
      {
        base with
        S.max_in_flight;
        S.queue_cap;
        S.default_jobs = Option.value jobs ~default:base.S.default_jobs;
      }
    in
    let t = S.create cfg in
    let fd, actual = S.listen ~addr ~port t in
    Printf.printf "crusade-serve listening on http://%s:%d\n%!" addr actual;
    S.serve t fd;
    0
  end

let main =
  let doc = "co-synthesis job server with a content-addressed result cache" in
  Cmd.v
    (Cmd.info "crusade_serve" ~version:"1.0.0" ~doc)
    Term.(
      const run $ addr_arg $ port_arg $ max_in_flight_arg $ queue_cap_arg
      $ jobs_arg)

let () = exit (Cmd.eval' main)

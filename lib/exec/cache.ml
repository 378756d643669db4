
let default_dir () =
  match Sys.getenv_opt "REPRO_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> "_repro_cache"

let extension = ".job"

let path ~dir job = Filename.concat dir (Job.hash job ^ extension)

(* An entry is a header line, the full job key on a line of its own, then
   the payload — the run's wire text ({!Run_wire.encode}):

     repro-cache <Job.schema_version> <payload bytes> <payload MD5 hex>
     <Job.key>
     <payload>

   A hit needs the tag, the version and the key to match and the payload
   to have its recorded length and digest, all checked without parsing
   the payload. Anything else — a torn or truncated write, a flipped
   byte, an entry from another format version, a digest collision on the
   file name — reads as a miss, and the next store overwrites it. *)
let tag = "repro-cache"

let header ~key payload =
  Printf.sprintf "%s %s %d %s\n%s\n" tag Job.schema_version
    (String.length payload)
    (Digest.to_hex (Digest.string payload))
    key

let payload_of_entry ~key data =
  let size = String.length data in
  match String.index_opt data '\n' with
  | None -> None
  | Some eol -> (
    match String.split_on_char ' ' (String.sub data 0 eol) with
    | [ t; version; len; md5 ]
      when String.equal t tag && String.equal version Job.schema_version -> (
      let key_at = eol + 1 in
      let payload_at = key_at + String.length key + 1 in
      match int_of_string_opt len with
      | Some len
        when len >= 0
             && payload_at + len = size
             && String.equal (String.sub data key_at (String.length key)) key
             && data.[payload_at - 1] = '\n'
             && String.equal
                  (Digest.to_hex (Digest.substring data payload_at len))
                  md5 ->
        Some (String.sub data payload_at len)
      | _ -> None)
    | _ -> None)

let lookup_text ~dir job =
  if not (Job.cacheable job) then None
  else
    match In_channel.with_open_bin (path ~dir job) In_channel.input_all with
    | exception Sys_error _ -> None
    | data -> payload_of_entry ~key:(Job.key job) data

let lookup ~dir job =
  Option.bind (lookup_text ~dir job) (fun text ->
      Result.to_option (Run_wire.decode text))

(* Concurrent daemon sessions (and a daemon racing a CLI sweep) store
   through here from several domains and processes at once, so writes
   must never leave a torn entry where [lookup] can see one: the entry
   is written to a fresh temp file and published with an atomic
   [rename]. Readers either see the complete old file, the complete new
   file, or nothing. A failed write removes its temp file; [mkdir] races
   (two writers creating the directory together) are benign. *)
let write ~dir job payload =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  match Filename.temp_file ~temp_dir:dir "entry" ".tmp" with
  | exception Sys_error _ -> ()
  | tmp -> (
    try
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc (header ~key:(Job.key job) payload);
          Out_channel.output_string oc payload);
      Sys.rename tmp (path ~dir job)
    with Sys_error _ | Out_of_memory ->
      (try Sys.remove tmp with Sys_error _ -> ()))

let store_text ~dir job payload =
  if Job.cacheable job then write ~dir job payload

let store ~dir job run =
  if Job.cacheable job then write ~dir job (Run_wire.encode run)

let invalidate ~dir job =
  let file = path ~dir job in
  match Sys.remove file with
  | () -> true
  | exception Sys_error _ -> false

let clear ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f extension then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n + 1
        end
        else begin
          (* Temp files orphaned by a crashed writer. *)
          if Filename.check_suffix f ".tmp" then
            (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n
        end)
      0 files
